package dist

import (
	"github.com/metascreen/metascreen/internal/metrics"
	"github.com/metascreen/metascreen/internal/service"
)

// Metrics is the coordinator's counter set, exposed in Prometheus text
// exposition format on /metrics by the embedded Registry's WriteTo.
// Counters are cumulative over the process lifetime (they restart from
// zero with the coordinator); gauges come from a Stats snapshot at scrape
// time. Names follow the service's metascreen_* convention with a dist_
// subsystem prefix.
type Metrics struct {
	*metrics.Registry[Stats]

	workersJoined *metrics.Counter
	workerDeaths  *metrics.Counter
	shards        *metrics.Counter
	reshards      *metrics.Counter
	merged        *metrics.Counter
	pollErrors    *metrics.Counter
	retries       *metrics.Counter // client retries after a transient failure
	staleRejected *metrics.Counter // partials dropped by the epoch fence instead of merged
	shardsFenced  *metrics.Counter // shards re-split because their owner revived under a newer epoch
	shardsStolen  *metrics.Counter
	hedgesIssued  *metrics.Counter
	hedgeWins     *metrics.Counter
	quarantines   *metrics.Counter // quarantine entries (steals and brownouts)
	journalErrors *metrics.Counter
	submitted     *metrics.Counter
	finished      *metrics.CounterVec // by terminal state
}

// NewMetrics returns an empty counter set.
func NewMetrics() *Metrics {
	r := new(metrics.Registry[Stats])
	m := &Metrics{Registry: r}
	r.Gauge("metascreen_dist_workers", "Worker nodes ever registered.", func(st Stats) int { return st.Workers })
	r.Gauge("metascreen_dist_workers_alive", "Worker nodes currently heartbeating.", func(st Stats) int { return st.WorkersAlive })
	m.workersJoined = r.Counter("metascreen_dist_worker_joins_total", "Worker registrations (first joins and revivals).")
	m.workerDeaths = r.Counter("metascreen_dist_worker_deaths_total", "Workers declared dead (heartbeat timeout or request failures).")
	m.shards = r.Counter("metascreen_dist_shards_total", "Ligand shards assigned to workers, re-splits included.")
	m.reshards = r.Counter("metascreen_dist_reshards_total", "Re-split events after a worker loss.")
	m.merged = r.Counter("metascreen_dist_ligands_merged_total", "Per-ligand results merged from worker partials.")
	m.pollErrors = r.Counter("metascreen_dist_poll_errors_total", "Failed worker dispatch/poll requests.")
	m.retries = r.Counter("metascreen_dist_request_retries_total", "Worker requests retried after a transient failure.")
	m.staleRejected = r.Counter("metascreen_dist_stale_partials_rejected_total", "Worker partials dropped by the epoch fence.")
	m.shardsFenced = r.Counter("metascreen_dist_shards_fenced_total", "Shards re-split because their worker revived under a newer epoch.")
	m.shardsStolen = r.Counter("metascreen_dist_shards_stolen_total", "Straggling shards fenced and re-dispatched to faster workers.")
	m.hedgesIssued = r.Counter("metascreen_dist_hedges_issued_total", "Duplicate dispatches raced against tail shards.")
	m.hedgeWins = r.Counter("metascreen_dist_hedge_wins_total", "Hedge twins that finished before their primary.")
	m.quarantines = r.Counter("metascreen_dist_quarantines_total", "Slow-worker quarantine entries.")
	r.Gauge("metascreen_dist_workers_quarantined", "Alive workers currently quarantined.", func(st Stats) int { return st.WorkersQuarantined })
	m.journalErrors = r.Counter("metascreen_dist_journal_errors_total", "Coordinator journal append/compact failures.")
	m.submitted = r.Counter("metascreen_dist_jobs_submitted_total", "Distributed screens admitted.")
	m.finished = r.CounterVec("metascreen_dist_jobs_finished_total", "Distributed screens by terminal state.", "state", metrics.Labels(service.TerminalStates)...)
	r.Gauge("metascreen_dist_jobs_running", "Distributed screens currently executing.", func(st Stats) int { return st.Running })
	return m
}
