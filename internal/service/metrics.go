package service

import (
	"sync/atomic"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/metrics"
)

// Metrics is the service's Prometheus registry: counters for the job
// lifecycle, latency histograms (end-to-end, queue wait, run time,
// per-generation simulated time), and engine work counters (scoring
// evaluations, simulated seconds) aggregated from every finished run. It
// holds no references into jobs, so scraping never contends with
// screening; the live gauges (queue depth, running jobs, admission state)
// are read from the Stats snapshot passed to WriteTo.
//
// The exposition format is the Prometheus text format, written by
// WriteTo in registration order; names are stable API (dashboards depend
// on them).
type Metrics struct {
	*metrics.Registry[Stats]

	submitted *metrics.Counter
	rejected  *metrics.Counter
	finished  *metrics.CounterVec // by terminal state
	shed      *metrics.CounterVec // overload rejections/culls by reason
	degraded  *metrics.Counter    // jobs run with reduced effort
	busy      atomic.Int64        // workers currently running a job

	latency    *metrics.Histogram    // submission -> terminal state
	queueWait  *metrics.Histogram    // submission -> worker start
	runTime    *metrics.Histogram    // worker start -> terminal state
	genSim     *metrics.Histogram    // simulated seconds per metaheuristic generation
	classQueue *metrics.HistogramVec // queue wait split by priority class

	evaluations      *metrics.Counter
	simulatedSeconds *metrics.FloatCounter

	deviceFaults *metrics.Counter
	resplits     *metrics.Counter
	jobRetries   *metrics.Counter
	workerPanics *metrics.Counter

	journalRecords     *metrics.Counter
	journalBytes       *metrics.Counter
	journalErrors      *metrics.Counter
	journalCompactions *metrics.Counter
	ligandRecords      *metrics.Counter
	replayedRecords    *metrics.Counter
	recoveredJobs      *metrics.Counter
	truncatedBytes     *metrics.Counter

	walIOErrors       *metrics.CounterVec // absorbed/surfaced storage I/O failures by op
	journalSkipped    *metrics.Counter    // appends skipped in storage-degraded mode
	storageRecoveries *metrics.Counter    // successful storage recoveries (journal re-enabled)
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

// NewMetrics builds an empty registry; the worker-pool size is read from
// Stats.Workers at scrape time.
func NewMetrics() *Metrics {
	r := new(metrics.Registry[Stats])
	m := &Metrics{Registry: r}
	var classes []string
	for _, c := range admission.Classes() {
		classes = append(classes, c.String())
	}

	m.submitted = r.Counter("metascreen_jobs_submitted_total", "Jobs admitted into the queue.")
	m.rejected = r.Counter("metascreen_jobs_rejected_total", "Submissions rejected because the queue was full.")
	m.finished = r.CounterVec("metascreen_jobs_finished_total", "Jobs by terminal state.", "state", metrics.Labels(TerminalStates)...)
	r.Gauge("metascreen_queue_depth", "Jobs admitted but not yet claimed by a worker.", func(st Stats) int { return st.QueueDepth })
	r.Gauge("metascreen_jobs_running", "Jobs currently executing.", func(st Stats) int { return st.Running })
	r.Gauge("metascreen_workers", "Size of the worker pool.", func(st Stats) int { return st.Workers })
	r.Gauge("metascreen_workers_busy", "Workers currently running a job.", func(Stats) int { return int(m.busy.Load()) })
	m.latency = r.Histogram("metascreen_job_latency_seconds", "Job latency from submission to terminal state.", defaultLatencyBuckets)
	m.queueWait = r.Histogram("metascreen_job_queue_seconds", "Queue wait from submission to worker start.", defaultLatencyBuckets)
	m.runTime = r.Histogram("metascreen_job_run_seconds", "Execution time from worker start to terminal state.", defaultLatencyBuckets)
	m.genSim = r.Histogram("metascreen_generation_sim_seconds", "Simulated seconds per metaheuristic generation in finished jobs.", defaultGenBuckets)
	m.evaluations = r.Counter("metascreen_evaluations_total", "Scoring-function evaluations performed by finished jobs.")
	m.simulatedSeconds = r.FloatCounter("metascreen_simulated_seconds_total", "Modeled engine seconds accumulated by finished jobs.")
	m.deviceFaults = r.Counter("metascreen_device_faults_total", "Simulated device fault events absorbed by finished jobs.")
	m.resplits = r.Counter("metascreen_resplits_total", "Mid-run work redistributions after device loss in finished jobs.")
	m.jobRetries = r.Counter("metascreen_job_retries_total", "Job executions retried after a transient failure.")
	m.workerPanics = r.Counter("metascreen_worker_panics_total", "Worker panics recovered while running jobs.")
	m.journalRecords = r.Counter("metascreen_journal_records_total", "Records appended to the journal: job lifecycle events and completed-ligand records.")
	m.journalBytes = r.Counter("metascreen_journal_bytes_total", "Journal record payload bytes appended.")
	m.journalErrors = r.Counter("metascreen_journal_errors_total", "Journal append, compaction or replay-decode failures.")
	m.journalCompactions = r.Counter("metascreen_journal_compactions_total", "Journal compactions into per-job snapshots.")
	m.ligandRecords = r.Counter("metascreen_ligand_records_total", "Completed-ligand records journaled.")
	m.replayedRecords = r.Counter("metascreen_replayed_records_total", "Journal records applied during boot-time recovery.")
	m.recoveredJobs = r.Counter("metascreen_recovered_jobs_total", "Interrupted jobs re-enqueued by boot-time recovery.")
	m.truncatedBytes = r.Counter("metascreen_journal_truncated_bytes_total", "Torn-tail journal bytes dropped during recovery.")
	m.walIOErrors = r.CounterVec("metascreen_wal_io_errors_total", "Storage I/O failures absorbed or surfaced by the durability layer, by operation.", "op")
	m.journalSkipped = r.Counter("metascreen_journal_skipped_total", "Journal appends skipped while storage-degraded.")
	m.storageRecoveries = r.Counter("metascreen_storage_recoveries_total", "Successful storage recoveries (journaling re-enabled).")
	r.Gauge("metascreen_storage_degraded", "Whether the service is in storage-degraded read-only mode.", func(st Stats) int { return boolGauge(st.StorageDegraded) })
	m.shed = r.CounterVec("metascreen_jobs_shed_total", "Overload rejections and culls by reason.", "reason", shedReasons...)
	m.degraded = r.Counter("metascreen_jobs_degraded_total", "Jobs run with reduced search effort under pressure.")
	r.Gauge("metascreen_admission_limit", "Adaptive concurrency limiter window.", func(st Stats) int { return st.Limit })
	r.Gauge("metascreen_admission_inflight", "Jobs currently holding a concurrency slot.", func(st Stats) int { return st.InFlight })
	r.Gauge("metascreen_breaker_state", "Device-health circuit state: 0 closed, 1 half-open, 2 open.", func(st Stats) int { return breakerGauge(st.Breaker) })
	r.GaugeVec("metascreen_queue_depth_class", "Queued jobs by priority class.", "class", classes, func(st Stats, class string) int { return st.QueueByClass[class] })
	m.classQueue = r.HistogramVec("metascreen_job_class_queue_seconds", "Queue wait from submission to worker start, by priority class.", "class", classes, defaultLatencyBuckets)
	return m
}

// Finished counts one job reaching a terminal state and observes its
// end-to-end latency (submission to completion, queue wait included).
func (m *Metrics) Finished(state JobState, latency time.Duration) {
	m.finished.Inc(string(state))
	m.latency.Observe(latency.Seconds())
}

// JobTimes observes the two phases of one finished job that actually ran:
// the submit->start queue wait and the start->finish run time.
func (m *Metrics) JobTimes(queueWait, run time.Duration) {
	m.queueWait.Observe(queueWait.Seconds())
	m.runTime.Observe(run.Seconds())
}

// Work accumulates a finished run's engine counters, including the fault
// events and re-splits its scheduler absorbed.
func (m *Metrics) Work(evaluations int64, simulatedSeconds float64, deviceFaults, resplits int64) {
	m.evaluations.Add(evaluations)
	m.simulatedSeconds.Add(simulatedSeconds)
	m.deviceFaults.Add(deviceFaults)
	m.resplits.Add(resplits)
}

// JournalAppend counts one journal record of the given payload size.
func (m *Metrics) JournalAppend(bytes int) {
	m.journalRecords.Inc()
	m.journalBytes.Add(int64(bytes))
}

// Recovered records what boot-time journal replay found: records applied,
// interrupted jobs re-enqueued, and torn-tail bytes truncated.
func (m *Metrics) Recovered(replayed, recovered int, truncated int64) {
	m.replayedRecords.Add(int64(replayed))
	m.recoveredJobs.Add(int64(recovered))
	m.truncatedBytes.Add(truncated)
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
