package dist

import (
	"strings"
	"testing"

	"github.com/metascreen/metascreen/internal/service"
)

// TestCoordinatorMetricsGolden pins the coordinator's exact Prometheus
// text exposition. Names, HELP strings and label sets are API, and
// integer counters must render with %d: metabench scrapes them with
// strconv.ParseInt, so 1e+06 would break it.
func TestCoordinatorMetricsGolden(t *testing.T) {
	m := NewMetrics()
	// Distinct counts per counter, so a handle wired to the wrong family
	// shows up as a changed value, not just a changed name.
	for i, inc := range []func(){
		m.workersJoined.Inc, m.workerDeaths.Inc, m.shards.Inc, m.reshards.Inc,
		m.pollErrors.Inc, m.retries.Inc, m.staleRejected.Inc, m.shardsFenced.Inc,
		m.shardsStolen.Inc, m.hedgesIssued.Inc, m.hedgeWins.Inc, m.quarantines.Inc,
		m.journalErrors.Inc, m.submitted.Inc,
	} {
		for n := 0; n <= i; n++ {
			inc()
		}
	}
	m.merged.Add(1_000_000)
	m.finished.Inc(string(service.StateDone))
	m.finished.Inc(string(service.StateDone))
	m.finished.Inc(string(service.StateCancelled))

	var b strings.Builder
	if err := m.WriteTo(&b, Stats{Workers: 3, WorkersAlive: 2, WorkersQuarantined: 1, Running: 1}); err != nil {
		t.Fatal(err)
	}
	want := `# HELP metascreen_dist_workers Worker nodes ever registered.
# TYPE metascreen_dist_workers gauge
metascreen_dist_workers 3
# HELP metascreen_dist_workers_alive Worker nodes currently heartbeating.
# TYPE metascreen_dist_workers_alive gauge
metascreen_dist_workers_alive 2
# HELP metascreen_dist_worker_joins_total Worker registrations (first joins and revivals).
# TYPE metascreen_dist_worker_joins_total counter
metascreen_dist_worker_joins_total 1
# HELP metascreen_dist_worker_deaths_total Workers declared dead (heartbeat timeout or request failures).
# TYPE metascreen_dist_worker_deaths_total counter
metascreen_dist_worker_deaths_total 2
# HELP metascreen_dist_shards_total Ligand shards assigned to workers, re-splits included.
# TYPE metascreen_dist_shards_total counter
metascreen_dist_shards_total 3
# HELP metascreen_dist_reshards_total Re-split events after a worker loss.
# TYPE metascreen_dist_reshards_total counter
metascreen_dist_reshards_total 4
# HELP metascreen_dist_ligands_merged_total Per-ligand results merged from worker partials.
# TYPE metascreen_dist_ligands_merged_total counter
metascreen_dist_ligands_merged_total 1000000
# HELP metascreen_dist_poll_errors_total Failed worker dispatch/poll requests.
# TYPE metascreen_dist_poll_errors_total counter
metascreen_dist_poll_errors_total 5
# HELP metascreen_dist_request_retries_total Worker requests retried after a transient failure.
# TYPE metascreen_dist_request_retries_total counter
metascreen_dist_request_retries_total 6
# HELP metascreen_dist_stale_partials_rejected_total Worker partials dropped by the epoch fence.
# TYPE metascreen_dist_stale_partials_rejected_total counter
metascreen_dist_stale_partials_rejected_total 7
# HELP metascreen_dist_shards_fenced_total Shards re-split because their worker revived under a newer epoch.
# TYPE metascreen_dist_shards_fenced_total counter
metascreen_dist_shards_fenced_total 8
# HELP metascreen_dist_shards_stolen_total Straggling shards fenced and re-dispatched to faster workers.
# TYPE metascreen_dist_shards_stolen_total counter
metascreen_dist_shards_stolen_total 9
# HELP metascreen_dist_hedges_issued_total Duplicate dispatches raced against tail shards.
# TYPE metascreen_dist_hedges_issued_total counter
metascreen_dist_hedges_issued_total 10
# HELP metascreen_dist_hedge_wins_total Hedge twins that finished before their primary.
# TYPE metascreen_dist_hedge_wins_total counter
metascreen_dist_hedge_wins_total 11
# HELP metascreen_dist_quarantines_total Slow-worker quarantine entries.
# TYPE metascreen_dist_quarantines_total counter
metascreen_dist_quarantines_total 12
# HELP metascreen_dist_workers_quarantined Alive workers currently quarantined.
# TYPE metascreen_dist_workers_quarantined gauge
metascreen_dist_workers_quarantined 1
# HELP metascreen_dist_journal_errors_total Coordinator journal append/compact failures.
# TYPE metascreen_dist_journal_errors_total counter
metascreen_dist_journal_errors_total 13
# HELP metascreen_dist_jobs_submitted_total Distributed screens admitted.
# TYPE metascreen_dist_jobs_submitted_total counter
metascreen_dist_jobs_submitted_total 14
# HELP metascreen_dist_jobs_finished_total Distributed screens by terminal state.
# TYPE metascreen_dist_jobs_finished_total counter
metascreen_dist_jobs_finished_total{state="done"} 2
metascreen_dist_jobs_finished_total{state="failed"} 0
metascreen_dist_jobs_finished_total{state="cancelled"} 1
metascreen_dist_jobs_finished_total{state="shed"} 0
# HELP metascreen_dist_jobs_running Distributed screens currently executing.
# TYPE metascreen_dist_jobs_running gauge
metascreen_dist_jobs_running 1
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
