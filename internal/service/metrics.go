package service

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
)

// histogram is one fixed-bucket Prometheus histogram: cumulative bucket
// counts are derived at write time, so observe is O(buckets) with no
// allocation. Callers hold the owning Metrics mutex.
type histogram struct {
	buckets []float64 // upper bounds, seconds; +Inf implicit
	counts  []int64   // one per bucket plus the +Inf overflow
	sum     float64
	count   int64
}

func newHistogram(buckets []float64) *histogram {
	return &histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

func (h *histogram) observe(v float64) {
	i := 0
	for ; i < len(h.buckets); i++ {
		if v <= h.buckets[i] {
			break
		}
	}
	h.counts[i]++
	h.sum += v
	h.count++
}

// write emits the histogram in Prometheus text format under name.
func (h *histogram) write(p func(format string, args ...any), name string) {
	cum := int64(0)
	for i, le := range h.buckets {
		cum += h.counts[i]
		p("%s_bucket{le=%q} %d\n", name, formatFloat(le), cum)
	}
	cum += h.counts[len(h.buckets)]
	p("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p("%s_sum %s\n", name, formatFloat(h.sum))
	p("%s_count %d\n", name, h.count)
}

// writeLabeled is write with one extra constant label on every series.
func (h *histogram) writeLabeled(p func(format string, args ...any), name, label, value string) {
	cum := int64(0)
	for i, le := range h.buckets {
		cum += h.counts[i]
		p("%s_bucket{%s=%q,le=%q} %d\n", name, label, value, formatFloat(le), cum)
	}
	cum += h.counts[len(h.buckets)]
	p("%s_bucket{%s=%q,le=\"+Inf\"} %d\n", name, label, value, cum)
	p("%s_sum{%s=%q} %s\n", name, label, value, formatFloat(h.sum))
	p("%s_count{%s=%q} %d\n", name, label, value, h.count)
}

// Metrics is the service's hand-rolled Prometheus registry: counters for
// the job lifecycle, latency histograms (end-to-end, queue wait, run time,
// per-generation simulated time), and engine work counters (scoring
// evaluations, simulated seconds) aggregated from every finished run. It
// holds no references into jobs, so scraping never contends with screening
// beyond this one mutex.
//
// The exposition format is the Prometheus text format, written by
// WriteTo; names are stable API (dashboards depend on them).
type Metrics struct {
	mu sync.Mutex

	workers   int
	busy      int
	submitted int64
	rejected  int64
	finished  map[JobState]int64
	shed      map[string]int64 // overload rejections/culls by reason
	degraded  int64            // jobs run with reduced effort

	latency    *histogram                     // submission -> terminal state
	queueWait  *histogram                     // submission -> worker start
	runTime    *histogram                     // worker start -> terminal state
	genSim     *histogram                     // simulated seconds per metaheuristic generation
	classQueue map[admission.Class]*histogram // queue wait split by priority class

	evaluations      int64
	simulatedSeconds float64

	deviceFaults int64
	resplits     int64
	jobRetries   int64
	workerPanics int64

	journalRecords     int64
	journalBytes       int64
	journalErrors      int64
	journalCompactions int64
	ligandRecords      int64
	replayedRecords    int64
	recoveredJobs      int64
	truncatedBytes     int64

	walIOErrors       map[string]int64 // absorbed/surfaced storage I/O failures by op
	journalSkipped    int64            // appends skipped in storage-degraded mode
	storageRecoveries int64            // successful storage recoveries (journal re-enabled)
}

// defaultLatencyBuckets spans interactive modeled screens (tens of
// milliseconds) to long real-mode library runs.
var defaultLatencyBuckets = []float64{0.01, 0.05, 0.1, 0.5, 1, 5, 10, 30, 60, 300}

// defaultGenBuckets spans one metaheuristic generation's simulated time,
// from sub-millisecond modeled generations to long real-scale ones.
var defaultGenBuckets = []float64{0.0001, 0.001, 0.01, 0.1, 1, 10, 100}

// shedReasons lists every shed-counter label in exposition order.
var shedReasons = []string{
	"queue_full", "deadline_admission", "deadline_dequeue",
	"deadline_backoff", "breaker_open", "storage_full",
}

// NewMetrics builds an empty registry for a pool of `workers` workers.
func NewMetrics(workers int) *Metrics {
	m := &Metrics{
		workers:     workers,
		finished:    make(map[JobState]int64),
		shed:        make(map[string]int64),
		latency:     newHistogram(defaultLatencyBuckets),
		queueWait:   newHistogram(defaultLatencyBuckets),
		runTime:     newHistogram(defaultLatencyBuckets),
		genSim:      newHistogram(defaultGenBuckets),
		classQueue:  make(map[admission.Class]*histogram),
		walIOErrors: make(map[string]int64),
	}
	for _, c := range admission.Classes() {
		m.classQueue[c] = newHistogram(defaultLatencyBuckets)
	}
	return m
}

// Submitted counts one admitted job.
func (m *Metrics) Submitted() {
	m.mu.Lock()
	m.submitted++
	m.mu.Unlock()
}

// Rejected counts one queue-full rejection.
func (m *Metrics) Rejected() {
	m.mu.Lock()
	m.rejected++
	m.mu.Unlock()
}

// Shed counts one overload rejection or cull under its reason label
// (one of shedReasons).
func (m *Metrics) Shed(reason string) {
	m.mu.Lock()
	m.shed[reason]++
	m.mu.Unlock()
}

// ShedCounts copies the shed counters by reason.
func (m *Metrics) ShedCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.shed))
	for k, v := range m.shed {
		out[k] = v
	}
	return out
}

// Degraded counts one job run with reduced effort under pressure.
func (m *Metrics) Degraded() {
	m.mu.Lock()
	m.degraded++
	m.mu.Unlock()
}

// ClassQueueWait observes one job's queue wait under its priority class.
func (m *Metrics) ClassQueueWait(c admission.Class, d time.Duration) {
	m.mu.Lock()
	if h, ok := m.classQueue[c]; ok {
		h.observe(d.Seconds())
	}
	m.mu.Unlock()
}

// WorkerBusy adjusts the busy-worker gauge by delta (+1/-1).
func (m *Metrics) WorkerBusy(delta int) {
	m.mu.Lock()
	m.busy += delta
	m.mu.Unlock()
}

// Finished counts one job reaching a terminal state and observes its
// end-to-end latency (submission to completion, queue wait included).
func (m *Metrics) Finished(state JobState, latency time.Duration) {
	m.mu.Lock()
	m.finished[state]++
	m.latency.observe(latency.Seconds())
	m.mu.Unlock()
}

// JobTimes observes the two phases of one finished job that actually ran:
// the submit->start queue wait and the start->finish run time.
func (m *Metrics) JobTimes(queueWait, run time.Duration) {
	m.mu.Lock()
	m.queueWait.observe(queueWait.Seconds())
	m.runTime.observe(run.Seconds())
	m.mu.Unlock()
}

// GenerationSim observes one metaheuristic generation's simulated
// duration, in modeled seconds.
func (m *Metrics) GenerationSim(seconds float64) {
	m.mu.Lock()
	m.genSim.observe(seconds)
	m.mu.Unlock()
}

// Work accumulates a finished run's engine counters, including the fault
// events and re-splits its scheduler absorbed.
func (m *Metrics) Work(evaluations int64, simulatedSeconds float64, deviceFaults, resplits int64) {
	m.mu.Lock()
	m.evaluations += evaluations
	m.simulatedSeconds += simulatedSeconds
	m.deviceFaults += deviceFaults
	m.resplits += resplits
	m.mu.Unlock()
}

// JobRetried counts one transient-failure retry of a job.
func (m *Metrics) JobRetried() {
	m.mu.Lock()
	m.jobRetries++
	m.mu.Unlock()
}

// WorkerPanic counts one recovered worker panic.
func (m *Metrics) WorkerPanic() {
	m.mu.Lock()
	m.workerPanics++
	m.mu.Unlock()
}

// JournalAppend counts one journal record of the given payload size.
func (m *Metrics) JournalAppend(bytes int) {
	m.mu.Lock()
	m.journalRecords++
	m.journalBytes += int64(bytes)
	m.mu.Unlock()
}

// JournalError counts one journal append, compaction or replay-decode
// failure. Durability degrades; the in-memory service stays correct.
func (m *Metrics) JournalError() {
	m.mu.Lock()
	m.journalErrors++
	m.mu.Unlock()
}

// JournalCompaction counts one successful journal compaction.
func (m *Metrics) JournalCompaction() {
	m.mu.Lock()
	m.journalCompactions++
	m.mu.Unlock()
}

// LigandRecorded counts one completed-ligand record journaled.
func (m *Metrics) LigandRecorded() {
	m.mu.Lock()
	m.ligandRecords++
	m.mu.Unlock()
}

// WALIOError counts one storage I/O failure by operation label ("sync",
// "dirsync", "remove", "quarantine", ...). Many are absorbed (logged and
// survived); the counter is how a quietly failing disk gets noticed.
func (m *Metrics) WALIOError(op string) {
	m.mu.Lock()
	m.walIOErrors[op]++
	m.mu.Unlock()
}

// WALIOErrorCounts copies the per-op storage I/O failure counters.
func (m *Metrics) WALIOErrorCounts() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.walIOErrors))
	for k, v := range m.walIOErrors {
		out[k] = v
	}
	return out
}

// JournalSkipped counts one append skipped in storage-degraded mode.
func (m *Metrics) JournalSkipped() {
	m.mu.Lock()
	m.journalSkipped++
	m.mu.Unlock()
}

// StorageRecovered counts one successful storage recovery: a journal
// append retried clean, or degraded mode ended.
func (m *Metrics) StorageRecovered() {
	m.mu.Lock()
	m.storageRecoveries++
	m.mu.Unlock()
}

// Recovered records what boot-time journal replay found: records applied,
// interrupted jobs re-enqueued, and torn-tail bytes truncated.
func (m *Metrics) Recovered(replayed, recovered int, truncated int64) {
	m.mu.Lock()
	m.replayedRecords += int64(replayed)
	m.recoveredJobs += int64(recovered)
	m.truncatedBytes += truncated
	m.mu.Unlock()
}

// Snapshot is the scrape-time view of the counters, merged with the live
// service gauges by the /metrics handler.
type Snapshot struct {
	Submitted   int64
	Rejected    int64
	Finished    map[JobState]int64
	Evaluations int64
	Busy        int
}

// Snapshot copies the counters.
func (m *Metrics) Snapshot() Snapshot {
	m.mu.Lock()
	defer m.mu.Unlock()
	fin := make(map[JobState]int64, len(m.finished))
	for k, v := range m.finished {
		fin[k] = v
	}
	return Snapshot{
		Submitted:   m.submitted,
		Rejected:    m.rejected,
		Finished:    fin,
		Evaluations: m.evaluations,
		Busy:        m.busy,
	}
}

// WriteTo writes the registry in Prometheus text exposition format,
// followed by the live gauges carried by st (queue depth, running jobs
// and the admission state come from the Service, not the registry).
// Output order is fixed so the exposition is byte-stable for a given
// state — see the golden test.
func (m *Metrics) WriteTo(w io.Writer, st Stats) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	queueDepth, running := st.QueueDepth, st.Running

	var err error
	p := func(format string, args ...any) {
		if err == nil {
			_, err = fmt.Fprintf(w, format, args...)
		}
	}

	p("# HELP metascreen_jobs_submitted_total Jobs admitted into the queue.\n")
	p("# TYPE metascreen_jobs_submitted_total counter\n")
	p("metascreen_jobs_submitted_total %d\n", m.submitted)

	p("# HELP metascreen_jobs_rejected_total Submissions rejected because the queue was full.\n")
	p("# TYPE metascreen_jobs_rejected_total counter\n")
	p("metascreen_jobs_rejected_total %d\n", m.rejected)

	p("# HELP metascreen_jobs_finished_total Jobs by terminal state.\n")
	p("# TYPE metascreen_jobs_finished_total counter\n")
	for _, st := range TerminalStates {
		p("metascreen_jobs_finished_total{state=%q} %d\n", string(st), m.finished[st])
	}

	p("# HELP metascreen_queue_depth Jobs admitted but not yet claimed by a worker.\n")
	p("# TYPE metascreen_queue_depth gauge\n")
	p("metascreen_queue_depth %d\n", queueDepth)

	p("# HELP metascreen_jobs_running Jobs currently executing.\n")
	p("# TYPE metascreen_jobs_running gauge\n")
	p("metascreen_jobs_running %d\n", running)

	p("# HELP metascreen_workers Size of the worker pool.\n")
	p("# TYPE metascreen_workers gauge\n")
	p("metascreen_workers %d\n", m.workers)

	p("# HELP metascreen_workers_busy Workers currently running a job.\n")
	p("# TYPE metascreen_workers_busy gauge\n")
	p("metascreen_workers_busy %d\n", m.busy)

	p("# HELP metascreen_job_latency_seconds Job latency from submission to terminal state.\n")
	p("# TYPE metascreen_job_latency_seconds histogram\n")
	m.latency.write(p, "metascreen_job_latency_seconds")

	p("# HELP metascreen_job_queue_seconds Queue wait from submission to worker start.\n")
	p("# TYPE metascreen_job_queue_seconds histogram\n")
	m.queueWait.write(p, "metascreen_job_queue_seconds")

	p("# HELP metascreen_job_run_seconds Execution time from worker start to terminal state.\n")
	p("# TYPE metascreen_job_run_seconds histogram\n")
	m.runTime.write(p, "metascreen_job_run_seconds")

	p("# HELP metascreen_generation_sim_seconds Simulated seconds per metaheuristic generation in finished jobs.\n")
	p("# TYPE metascreen_generation_sim_seconds histogram\n")
	m.genSim.write(p, "metascreen_generation_sim_seconds")

	p("# HELP metascreen_evaluations_total Scoring-function evaluations performed by finished jobs.\n")
	p("# TYPE metascreen_evaluations_total counter\n")
	p("metascreen_evaluations_total %d\n", m.evaluations)

	p("# HELP metascreen_simulated_seconds_total Modeled engine seconds accumulated by finished jobs.\n")
	p("# TYPE metascreen_simulated_seconds_total counter\n")
	p("metascreen_simulated_seconds_total %s\n", formatFloat(m.simulatedSeconds))

	p("# HELP metascreen_device_faults_total Simulated device fault events absorbed by finished jobs.\n")
	p("# TYPE metascreen_device_faults_total counter\n")
	p("metascreen_device_faults_total %d\n", m.deviceFaults)

	p("# HELP metascreen_resplits_total Mid-run work redistributions after device loss in finished jobs.\n")
	p("# TYPE metascreen_resplits_total counter\n")
	p("metascreen_resplits_total %d\n", m.resplits)

	p("# HELP metascreen_job_retries_total Job executions retried after a transient failure.\n")
	p("# TYPE metascreen_job_retries_total counter\n")
	p("metascreen_job_retries_total %d\n", m.jobRetries)

	p("# HELP metascreen_worker_panics_total Worker panics recovered while running jobs.\n")
	p("# TYPE metascreen_worker_panics_total counter\n")
	p("metascreen_worker_panics_total %d\n", m.workerPanics)

	p("# HELP metascreen_journal_records_total Records appended to the journal: job lifecycle events and completed-ligand records.\n")
	p("# TYPE metascreen_journal_records_total counter\n")
	p("metascreen_journal_records_total %d\n", m.journalRecords)

	p("# HELP metascreen_journal_bytes_total Journal record payload bytes appended.\n")
	p("# TYPE metascreen_journal_bytes_total counter\n")
	p("metascreen_journal_bytes_total %d\n", m.journalBytes)

	p("# HELP metascreen_journal_errors_total Journal append, compaction or replay-decode failures.\n")
	p("# TYPE metascreen_journal_errors_total counter\n")
	p("metascreen_journal_errors_total %d\n", m.journalErrors)

	p("# HELP metascreen_journal_compactions_total Journal compactions into per-job snapshots.\n")
	p("# TYPE metascreen_journal_compactions_total counter\n")
	p("metascreen_journal_compactions_total %d\n", m.journalCompactions)

	p("# HELP metascreen_ligand_records_total Completed-ligand records journaled.\n")
	p("# TYPE metascreen_ligand_records_total counter\n")
	p("metascreen_ligand_records_total %d\n", m.ligandRecords)

	p("# HELP metascreen_replayed_records_total Journal records applied during boot-time recovery.\n")
	p("# TYPE metascreen_replayed_records_total counter\n")
	p("metascreen_replayed_records_total %d\n", m.replayedRecords)

	p("# HELP metascreen_recovered_jobs_total Interrupted jobs re-enqueued by boot-time recovery.\n")
	p("# TYPE metascreen_recovered_jobs_total counter\n")
	p("metascreen_recovered_jobs_total %d\n", m.recoveredJobs)

	p("# HELP metascreen_journal_truncated_bytes_total Torn-tail journal bytes dropped during recovery.\n")
	p("# TYPE metascreen_journal_truncated_bytes_total counter\n")
	p("metascreen_journal_truncated_bytes_total %d\n", m.truncatedBytes)

	p("# HELP metascreen_wal_io_errors_total Storage I/O failures absorbed or surfaced by the durability layer, by operation.\n")
	p("# TYPE metascreen_wal_io_errors_total counter\n")
	ops := make([]string, 0, len(m.walIOErrors))
	for op := range m.walIOErrors {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		p("metascreen_wal_io_errors_total{op=%q} %d\n", op, m.walIOErrors[op])
	}

	p("# HELP metascreen_journal_skipped_total Journal appends skipped while storage-degraded.\n")
	p("# TYPE metascreen_journal_skipped_total counter\n")
	p("metascreen_journal_skipped_total %d\n", m.journalSkipped)

	p("# HELP metascreen_storage_recoveries_total Successful storage recoveries (journaling re-enabled).\n")
	p("# TYPE metascreen_storage_recoveries_total counter\n")
	p("metascreen_storage_recoveries_total %d\n", m.storageRecoveries)

	p("# HELP metascreen_storage_degraded Whether the service is in storage-degraded read-only mode.\n")
	p("# TYPE metascreen_storage_degraded gauge\n")
	p("metascreen_storage_degraded %d\n", boolGauge(st.StorageDegraded))

	p("# HELP metascreen_jobs_shed_total Overload rejections and culls by reason.\n")
	p("# TYPE metascreen_jobs_shed_total counter\n")
	for _, r := range shedReasons {
		p("metascreen_jobs_shed_total{reason=%q} %d\n", r, m.shed[r])
	}

	p("# HELP metascreen_jobs_degraded_total Jobs run with reduced search effort under pressure.\n")
	p("# TYPE metascreen_jobs_degraded_total counter\n")
	p("metascreen_jobs_degraded_total %d\n", m.degraded)

	p("# HELP metascreen_admission_limit Adaptive concurrency limiter window.\n")
	p("# TYPE metascreen_admission_limit gauge\n")
	p("metascreen_admission_limit %d\n", st.Limit)

	p("# HELP metascreen_admission_inflight Jobs currently holding a concurrency slot.\n")
	p("# TYPE metascreen_admission_inflight gauge\n")
	p("metascreen_admission_inflight %d\n", st.InFlight)

	p("# HELP metascreen_breaker_state Device-health circuit state: 0 closed, 1 half-open, 2 open.\n")
	p("# TYPE metascreen_breaker_state gauge\n")
	p("metascreen_breaker_state %d\n", breakerGauge(st.Breaker))

	p("# HELP metascreen_queue_depth_class Queued jobs by priority class.\n")
	p("# TYPE metascreen_queue_depth_class gauge\n")
	for _, c := range admission.Classes() {
		p("metascreen_queue_depth_class{class=%q} %d\n", c.String(), st.QueueByClass[c.String()])
	}

	p("# HELP metascreen_job_class_queue_seconds Queue wait from submission to worker start, by priority class.\n")
	p("# TYPE metascreen_job_class_queue_seconds histogram\n")
	for _, c := range admission.Classes() {
		m.classQueue[c].writeLabeled(p, "metascreen_job_class_queue_seconds", "class", c.String())
	}

	return err
}

// boolGauge renders a boolean gauge as 0/1.
func boolGauge(b bool) int {
	if b {
		return 1
	}
	return 0
}

// breakerGauge maps a breaker state name to its gauge value.
func breakerGauge(state string) int {
	switch state {
	case "half-open":
		return 1
	case "open":
		return 2
	}
	return 0
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
