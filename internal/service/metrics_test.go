package service

import (
	"os"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
)

// TestMetricsExpositionGolden pins the exact Prometheus text exposition
// for a known sequence of events. The format is API: dashboards and
// alerts depend on these names and label sets.
func TestMetricsExpositionGolden(t *testing.T) {
	m := NewMetrics()
	m.submitted.Inc()
	m.submitted.Inc()
	m.submitted.Inc()
	m.rejected.Inc()
	m.busy.Add(1)
	m.Finished(StateDone, 40*time.Millisecond)
	m.Finished(StateDone, 700*time.Millisecond)
	m.Finished(StateCancelled, 2*time.Second)
	m.JobTimes(250*time.Millisecond, 500*time.Millisecond)
	m.JobTimes(500*time.Millisecond, 2*time.Second)
	m.genSim.Observe(0.25)
	m.genSim.Observe(0.5)
	m.genSim.Observe(4)
	m.Work(1500, 12.5, 2, 1)
	m.Work(500, 2.5, 1, 0)
	m.jobRetries.Inc()
	m.jobRetries.Inc()
	m.jobRetries.Inc()
	m.workerPanics.Inc()
	m.JournalAppend(120)
	m.JournalAppend(80)
	m.journalErrors.Inc()
	m.journalCompactions.Inc()
	m.ligandRecords.Inc()
	m.ligandRecords.Inc()
	m.Recovered(7, 2, 13)
	m.shed.Inc("queue_full")
	m.shed.Inc("breaker_open")
	m.shed.Inc("storage_full")
	m.degraded.Inc()
	m.walIOErrors.Inc("sync")
	m.walIOErrors.Inc("sync")
	m.walIOErrors.Inc("dirsync")
	m.journalSkipped.Inc()
	m.storageRecoveries.Inc()
	m.classQueue.Observe(admission.ClassHigh.String(), 0.02)
	m.classQueue.Observe(admission.ClassNormal.String(), 0.3)

	var b strings.Builder
	st := Stats{
		Workers:         2,
		QueueDepth:      1,
		Running:         1,
		Limit:           2,
		InFlight:        1,
		Breaker:         "half-open",
		QueueByClass:    map[string]int{"normal": 1},
		StorageDegraded: true,
	}
	if err := m.WriteTo(&b, st); err != nil {
		t.Fatal(err)
	}
	if os.Getenv("METASCREEN_REGEN_GOLDEN") != "" {
		os.WriteFile("/tmp/metrics_golden.txt", []byte(b.String()), 0o644)
	}
	want := `# HELP metascreen_jobs_submitted_total Jobs admitted into the queue.
# TYPE metascreen_jobs_submitted_total counter
metascreen_jobs_submitted_total 3
# HELP metascreen_jobs_rejected_total Submissions rejected because the queue was full.
# TYPE metascreen_jobs_rejected_total counter
metascreen_jobs_rejected_total 1
# HELP metascreen_jobs_finished_total Jobs by terminal state.
# TYPE metascreen_jobs_finished_total counter
metascreen_jobs_finished_total{state="done"} 2
metascreen_jobs_finished_total{state="failed"} 0
metascreen_jobs_finished_total{state="cancelled"} 1
metascreen_jobs_finished_total{state="shed"} 0
# HELP metascreen_queue_depth Jobs admitted but not yet claimed by a worker.
# TYPE metascreen_queue_depth gauge
metascreen_queue_depth 1
# HELP metascreen_jobs_running Jobs currently executing.
# TYPE metascreen_jobs_running gauge
metascreen_jobs_running 1
# HELP metascreen_workers Size of the worker pool.
# TYPE metascreen_workers gauge
metascreen_workers 2
# HELP metascreen_workers_busy Workers currently running a job.
# TYPE metascreen_workers_busy gauge
metascreen_workers_busy 1
# HELP metascreen_job_latency_seconds Job latency from submission to terminal state.
# TYPE metascreen_job_latency_seconds histogram
metascreen_job_latency_seconds_bucket{le="0.01"} 0
metascreen_job_latency_seconds_bucket{le="0.05"} 1
metascreen_job_latency_seconds_bucket{le="0.1"} 1
metascreen_job_latency_seconds_bucket{le="0.5"} 1
metascreen_job_latency_seconds_bucket{le="1"} 2
metascreen_job_latency_seconds_bucket{le="5"} 3
metascreen_job_latency_seconds_bucket{le="10"} 3
metascreen_job_latency_seconds_bucket{le="30"} 3
metascreen_job_latency_seconds_bucket{le="60"} 3
metascreen_job_latency_seconds_bucket{le="300"} 3
metascreen_job_latency_seconds_bucket{le="+Inf"} 3
metascreen_job_latency_seconds_sum 2.74
metascreen_job_latency_seconds_count 3
# HELP metascreen_job_queue_seconds Queue wait from submission to worker start.
# TYPE metascreen_job_queue_seconds histogram
metascreen_job_queue_seconds_bucket{le="0.01"} 0
metascreen_job_queue_seconds_bucket{le="0.05"} 0
metascreen_job_queue_seconds_bucket{le="0.1"} 0
metascreen_job_queue_seconds_bucket{le="0.5"} 2
metascreen_job_queue_seconds_bucket{le="1"} 2
metascreen_job_queue_seconds_bucket{le="5"} 2
metascreen_job_queue_seconds_bucket{le="10"} 2
metascreen_job_queue_seconds_bucket{le="30"} 2
metascreen_job_queue_seconds_bucket{le="60"} 2
metascreen_job_queue_seconds_bucket{le="300"} 2
metascreen_job_queue_seconds_bucket{le="+Inf"} 2
metascreen_job_queue_seconds_sum 0.75
metascreen_job_queue_seconds_count 2
# HELP metascreen_job_run_seconds Execution time from worker start to terminal state.
# TYPE metascreen_job_run_seconds histogram
metascreen_job_run_seconds_bucket{le="0.01"} 0
metascreen_job_run_seconds_bucket{le="0.05"} 0
metascreen_job_run_seconds_bucket{le="0.1"} 0
metascreen_job_run_seconds_bucket{le="0.5"} 1
metascreen_job_run_seconds_bucket{le="1"} 1
metascreen_job_run_seconds_bucket{le="5"} 2
metascreen_job_run_seconds_bucket{le="10"} 2
metascreen_job_run_seconds_bucket{le="30"} 2
metascreen_job_run_seconds_bucket{le="60"} 2
metascreen_job_run_seconds_bucket{le="300"} 2
metascreen_job_run_seconds_bucket{le="+Inf"} 2
metascreen_job_run_seconds_sum 2.5
metascreen_job_run_seconds_count 2
# HELP metascreen_generation_sim_seconds Simulated seconds per metaheuristic generation in finished jobs.
# TYPE metascreen_generation_sim_seconds histogram
metascreen_generation_sim_seconds_bucket{le="0.0001"} 0
metascreen_generation_sim_seconds_bucket{le="0.001"} 0
metascreen_generation_sim_seconds_bucket{le="0.01"} 0
metascreen_generation_sim_seconds_bucket{le="0.1"} 0
metascreen_generation_sim_seconds_bucket{le="1"} 2
metascreen_generation_sim_seconds_bucket{le="10"} 3
metascreen_generation_sim_seconds_bucket{le="100"} 3
metascreen_generation_sim_seconds_bucket{le="+Inf"} 3
metascreen_generation_sim_seconds_sum 4.75
metascreen_generation_sim_seconds_count 3
# HELP metascreen_evaluations_total Scoring-function evaluations performed by finished jobs.
# TYPE metascreen_evaluations_total counter
metascreen_evaluations_total 2000
# HELP metascreen_simulated_seconds_total Modeled engine seconds accumulated by finished jobs.
# TYPE metascreen_simulated_seconds_total counter
metascreen_simulated_seconds_total 15
# HELP metascreen_device_faults_total Simulated device fault events absorbed by finished jobs.
# TYPE metascreen_device_faults_total counter
metascreen_device_faults_total 3
# HELP metascreen_resplits_total Mid-run work redistributions after device loss in finished jobs.
# TYPE metascreen_resplits_total counter
metascreen_resplits_total 1
# HELP metascreen_job_retries_total Job executions retried after a transient failure.
# TYPE metascreen_job_retries_total counter
metascreen_job_retries_total 3
# HELP metascreen_worker_panics_total Worker panics recovered while running jobs.
# TYPE metascreen_worker_panics_total counter
metascreen_worker_panics_total 1
# HELP metascreen_journal_records_total Records appended to the journal: job lifecycle events and completed-ligand records.
# TYPE metascreen_journal_records_total counter
metascreen_journal_records_total 2
# HELP metascreen_journal_bytes_total Journal record payload bytes appended.
# TYPE metascreen_journal_bytes_total counter
metascreen_journal_bytes_total 200
# HELP metascreen_journal_errors_total Journal append, compaction or replay-decode failures.
# TYPE metascreen_journal_errors_total counter
metascreen_journal_errors_total 1
# HELP metascreen_journal_compactions_total Journal compactions into per-job snapshots.
# TYPE metascreen_journal_compactions_total counter
metascreen_journal_compactions_total 1
# HELP metascreen_ligand_records_total Completed-ligand records journaled.
# TYPE metascreen_ligand_records_total counter
metascreen_ligand_records_total 2
# HELP metascreen_replayed_records_total Journal records applied during boot-time recovery.
# TYPE metascreen_replayed_records_total counter
metascreen_replayed_records_total 7
# HELP metascreen_recovered_jobs_total Interrupted jobs re-enqueued by boot-time recovery.
# TYPE metascreen_recovered_jobs_total counter
metascreen_recovered_jobs_total 2
# HELP metascreen_journal_truncated_bytes_total Torn-tail journal bytes dropped during recovery.
# TYPE metascreen_journal_truncated_bytes_total counter
metascreen_journal_truncated_bytes_total 13
# HELP metascreen_wal_io_errors_total Storage I/O failures absorbed or surfaced by the durability layer, by operation.
# TYPE metascreen_wal_io_errors_total counter
metascreen_wal_io_errors_total{op="dirsync"} 1
metascreen_wal_io_errors_total{op="sync"} 2
# HELP metascreen_journal_skipped_total Journal appends skipped while storage-degraded.
# TYPE metascreen_journal_skipped_total counter
metascreen_journal_skipped_total 1
# HELP metascreen_storage_recoveries_total Successful storage recoveries (journaling re-enabled).
# TYPE metascreen_storage_recoveries_total counter
metascreen_storage_recoveries_total 1
# HELP metascreen_storage_degraded Whether the service is in storage-degraded read-only mode.
# TYPE metascreen_storage_degraded gauge
metascreen_storage_degraded 1
# HELP metascreen_jobs_shed_total Overload rejections and culls by reason.
# TYPE metascreen_jobs_shed_total counter
metascreen_jobs_shed_total{reason="queue_full"} 1
metascreen_jobs_shed_total{reason="deadline_admission"} 0
metascreen_jobs_shed_total{reason="deadline_dequeue"} 0
metascreen_jobs_shed_total{reason="deadline_backoff"} 0
metascreen_jobs_shed_total{reason="breaker_open"} 1
metascreen_jobs_shed_total{reason="storage_full"} 1
# HELP metascreen_jobs_degraded_total Jobs run with reduced search effort under pressure.
# TYPE metascreen_jobs_degraded_total counter
metascreen_jobs_degraded_total 1
# HELP metascreen_admission_limit Adaptive concurrency limiter window.
# TYPE metascreen_admission_limit gauge
metascreen_admission_limit 2
# HELP metascreen_admission_inflight Jobs currently holding a concurrency slot.
# TYPE metascreen_admission_inflight gauge
metascreen_admission_inflight 1
# HELP metascreen_breaker_state Device-health circuit state: 0 closed, 1 half-open, 2 open.
# TYPE metascreen_breaker_state gauge
metascreen_breaker_state 1
# HELP metascreen_queue_depth_class Queued jobs by priority class.
# TYPE metascreen_queue_depth_class gauge
metascreen_queue_depth_class{class="high"} 0
metascreen_queue_depth_class{class="normal"} 1
metascreen_queue_depth_class{class="low"} 0
# HELP metascreen_job_class_queue_seconds Queue wait from submission to worker start, by priority class.
# TYPE metascreen_job_class_queue_seconds histogram
metascreen_job_class_queue_seconds_bucket{class="high",le="0.01"} 0
metascreen_job_class_queue_seconds_bucket{class="high",le="0.05"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="0.1"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="0.5"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="1"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="5"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="10"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="30"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="60"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="300"} 1
metascreen_job_class_queue_seconds_bucket{class="high",le="+Inf"} 1
metascreen_job_class_queue_seconds_sum{class="high"} 0.02
metascreen_job_class_queue_seconds_count{class="high"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="0.01"} 0
metascreen_job_class_queue_seconds_bucket{class="normal",le="0.05"} 0
metascreen_job_class_queue_seconds_bucket{class="normal",le="0.1"} 0
metascreen_job_class_queue_seconds_bucket{class="normal",le="0.5"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="1"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="5"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="10"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="30"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="60"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="300"} 1
metascreen_job_class_queue_seconds_bucket{class="normal",le="+Inf"} 1
metascreen_job_class_queue_seconds_sum{class="normal"} 0.3
metascreen_job_class_queue_seconds_count{class="normal"} 1
metascreen_job_class_queue_seconds_bucket{class="low",le="0.01"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="0.05"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="0.1"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="0.5"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="1"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="5"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="10"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="30"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="60"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="300"} 0
metascreen_job_class_queue_seconds_bucket{class="low",le="+Inf"} 0
metascreen_job_class_queue_seconds_sum{class="low"} 0
metascreen_job_class_queue_seconds_count{class="low"} 0
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}

func TestMetricsEmpty(t *testing.T) {
	m := NewMetrics()
	var b strings.Builder
	if err := m.WriteTo(&b, Stats{}); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"metascreen_jobs_submitted_total 0",
		`metascreen_job_latency_seconds_bucket{le="+Inf"} 0`,
		"metascreen_evaluations_total 0",
		`metascreen_jobs_shed_total{reason="queue_full"} 0`,
		"metascreen_jobs_degraded_total 0",
		"metascreen_breaker_state 0",
		`metascreen_queue_depth_class{class="low"} 0`,
		`metascreen_job_class_queue_seconds_count{class="high"} 0`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in empty exposition", want)
		}
	}
}
