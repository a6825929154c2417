package dist

import (
	"fmt"
	"io"
	"sync"

	"github.com/metascreen/metascreen/internal/service"
)

// Metrics is the coordinator's counter set, exposed in Prometheus text
// exposition format on /metrics. Counters are cumulative over the
// process lifetime (they restart from zero with the coordinator);
// gauges come from a Stats snapshot at scrape time.
type Metrics struct {
	mu            sync.Mutex
	workersJoined int64
	workerDeaths  int64
	shards        int64
	reshards      int64
	merged        int64
	pollErrors    int64
	retries       int64
	staleRejected int64
	shardsFenced  int64
	shardsStolen  int64
	hedgesIssued  int64
	hedgeWins     int64
	quarantines   int64
	journalErrors int64
	submitted     int64
	finished      map[service.JobState]int64
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	return &Metrics{finished: make(map[service.JobState]int64)}
}

func (m *Metrics) WorkerJoined()  { m.add(&m.workersJoined, 1) }
func (m *Metrics) WorkerDied()    { m.add(&m.workerDeaths, 1) }
func (m *Metrics) ShardAssigned() { m.add(&m.shards, 1) }
func (m *Metrics) Reshard()       { m.add(&m.reshards, 1) }
func (m *Metrics) PollError()     { m.add(&m.pollErrors, 1) }
func (m *Metrics) JournalError()  { m.add(&m.journalErrors, 1) }
func (m *Metrics) JobSubmitted()  { m.add(&m.submitted, 1) }

// RequestRetried counts one client retry after a transient failure.
func (m *Metrics) RequestRetried() { m.add(&m.retries, 1) }

// StalePartialRejected counts a worker partial dropped by the epoch
// fence instead of merged.
func (m *Metrics) StalePartialRejected() { m.add(&m.staleRejected, 1) }

// ShardFenced counts shards re-split because their owner revived under
// a newer registration epoch.
func (m *Metrics) ShardFenced() { m.add(&m.shardsFenced, 1) }

// ShardStolen counts a straggling shard whose unfinished remainder was
// fenced and re-dispatched to faster workers.
func (m *Metrics) ShardStolen() { m.add(&m.shardsStolen, 1) }

// HedgeIssued counts a duplicate dispatch raced against a tail shard.
func (m *Metrics) HedgeIssued() { m.add(&m.hedgesIssued, 1) }

// HedgeWon counts a hedge twin that finished before its primary.
func (m *Metrics) HedgeWon() { m.add(&m.hedgeWins, 1) }

// WorkerQuarantined counts quarantine entries (steals and brownouts).
func (m *Metrics) WorkerQuarantined() { m.add(&m.quarantines, 1) }

func (m *Metrics) LigandsMerged(n int) { m.add(&m.merged, int64(n)) }

func (m *Metrics) JobFinished(st service.JobState) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.finished[st]++
}

func (m *Metrics) add(p *int64, d int64) {
	m.mu.Lock()
	*p += d
	m.mu.Unlock()
}

// WriteTo renders the exposition. Counter naming follows the service's
// metascreen_* convention with a dist_ subsystem prefix.
func (m *Metrics) WriteTo(w io.Writer, st Stats) {
	m.mu.Lock()
	defer m.mu.Unlock()
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP metascreen_dist_workers Worker nodes ever registered.\n")
	p("# TYPE metascreen_dist_workers gauge\n")
	p("metascreen_dist_workers %d\n", st.Workers)

	p("# HELP metascreen_dist_workers_alive Worker nodes currently heartbeating.\n")
	p("# TYPE metascreen_dist_workers_alive gauge\n")
	p("metascreen_dist_workers_alive %d\n", st.WorkersAlive)

	p("# HELP metascreen_dist_worker_joins_total Worker registrations (first joins and revivals).\n")
	p("# TYPE metascreen_dist_worker_joins_total counter\n")
	p("metascreen_dist_worker_joins_total %d\n", m.workersJoined)

	p("# HELP metascreen_dist_worker_deaths_total Workers declared dead (heartbeat timeout or request failures).\n")
	p("# TYPE metascreen_dist_worker_deaths_total counter\n")
	p("metascreen_dist_worker_deaths_total %d\n", m.workerDeaths)

	p("# HELP metascreen_dist_shards_total Ligand shards assigned to workers, re-splits included.\n")
	p("# TYPE metascreen_dist_shards_total counter\n")
	p("metascreen_dist_shards_total %d\n", m.shards)

	p("# HELP metascreen_dist_reshards_total Re-split events after a worker loss.\n")
	p("# TYPE metascreen_dist_reshards_total counter\n")
	p("metascreen_dist_reshards_total %d\n", m.reshards)

	p("# HELP metascreen_dist_ligands_merged_total Per-ligand results merged from worker partials.\n")
	p("# TYPE metascreen_dist_ligands_merged_total counter\n")
	p("metascreen_dist_ligands_merged_total %d\n", m.merged)

	p("# HELP metascreen_dist_poll_errors_total Failed worker dispatch/poll requests.\n")
	p("# TYPE metascreen_dist_poll_errors_total counter\n")
	p("metascreen_dist_poll_errors_total %d\n", m.pollErrors)

	p("# HELP metascreen_dist_request_retries_total Worker requests retried after a transient failure.\n")
	p("# TYPE metascreen_dist_request_retries_total counter\n")
	p("metascreen_dist_request_retries_total %d\n", m.retries)

	p("# HELP metascreen_dist_stale_partials_rejected_total Worker partials dropped by the epoch fence.\n")
	p("# TYPE metascreen_dist_stale_partials_rejected_total counter\n")
	p("metascreen_dist_stale_partials_rejected_total %d\n", m.staleRejected)

	p("# HELP metascreen_dist_shards_fenced_total Shards re-split because their worker revived under a newer epoch.\n")
	p("# TYPE metascreen_dist_shards_fenced_total counter\n")
	p("metascreen_dist_shards_fenced_total %d\n", m.shardsFenced)

	p("# HELP metascreen_dist_shards_stolen_total Straggling shards fenced and re-dispatched to faster workers.\n")
	p("# TYPE metascreen_dist_shards_stolen_total counter\n")
	p("metascreen_dist_shards_stolen_total %d\n", m.shardsStolen)

	p("# HELP metascreen_dist_hedges_issued_total Duplicate dispatches raced against tail shards.\n")
	p("# TYPE metascreen_dist_hedges_issued_total counter\n")
	p("metascreen_dist_hedges_issued_total %d\n", m.hedgesIssued)

	p("# HELP metascreen_dist_hedge_wins_total Hedge twins that finished before their primary.\n")
	p("# TYPE metascreen_dist_hedge_wins_total counter\n")
	p("metascreen_dist_hedge_wins_total %d\n", m.hedgeWins)

	p("# HELP metascreen_dist_quarantines_total Slow-worker quarantine entries.\n")
	p("# TYPE metascreen_dist_quarantines_total counter\n")
	p("metascreen_dist_quarantines_total %d\n", m.quarantines)

	p("# HELP metascreen_dist_workers_quarantined Alive workers currently quarantined.\n")
	p("# TYPE metascreen_dist_workers_quarantined gauge\n")
	p("metascreen_dist_workers_quarantined %d\n", st.WorkersQuarantined)

	p("# HELP metascreen_dist_journal_errors_total Coordinator journal append/compact failures.\n")
	p("# TYPE metascreen_dist_journal_errors_total counter\n")
	p("metascreen_dist_journal_errors_total %d\n", m.journalErrors)

	p("# HELP metascreen_dist_jobs_submitted_total Distributed screens admitted.\n")
	p("# TYPE metascreen_dist_jobs_submitted_total counter\n")
	p("metascreen_dist_jobs_submitted_total %d\n", m.submitted)

	p("# HELP metascreen_dist_jobs_finished_total Distributed screens by terminal state.\n")
	p("# TYPE metascreen_dist_jobs_finished_total counter\n")
	for _, s := range service.TerminalStates {
		p("metascreen_dist_jobs_finished_total{state=%q} %d\n", string(s), m.finished[s])
	}

	p("# HELP metascreen_dist_jobs_running Distributed screens currently executing.\n")
	p("# TYPE metascreen_dist_jobs_running gauge\n")
	p("metascreen_dist_jobs_running %d\n", st.Running)
}
