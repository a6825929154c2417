// Package dist scales a screening service out across nodes: a
// coordinator accepts ordinary screen requests, shards the ligand
// library across registered worker replicas by FNV-1a name hash, and
// dispatches each shard to a worker over the normal HTTP JSON API as a
// Ligands-restricted ScreenRequest. Per-ligand seed lanes are keyed by
// ligand name, so placement never changes a ligand's result: the merged
// ranking of a 3-node screen is byte-identical to the same screen run on
// one node at equal seeds.
//
// Workers are stock vsserved nodes — registration and heartbeating are
// the only coordinator-specific traffic they emit. The coordinator
// streams each shard's completed ligands from the worker's /partial
// cursor as the screen records them, merging entries as they arrive;
// when a worker dies (heartbeat timeout or repeated request failures)
// only its unfinished ligands move, re-split over the
// survivors proportionally to their observed throughput (the device
// pool's warm-up-weighted re-split, lifted one level up). All
// distributed state — membership, shard assignments, merged entries,
// terminal results — is journaled through the WAL, so a restarted
// coordinator resumes mid-screen and re-dispatches under the same
// idempotency keys, mapping onto the workers' still-running jobs instead
// of duplicating them.
package dist

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"sort"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/service"
	"github.com/metascreen/metascreen/internal/trace"
	"github.com/metascreen/metascreen/internal/wal"
)

// Config tunes a coordinator. Zero values mean the documented defaults.
type Config struct {
	// DataDir roots the coordinator's journal ("" = in-memory only: a
	// restart forgets all distributed jobs).
	DataDir string
	// SyncPolicy is the journal's fsync policy (wal.SyncAlways default).
	SyncPolicy wal.SyncPolicy
	// FS is the filesystem the journal writes through; nil means the real
	// one. Storage chaos plans (-disk-chaos) inject a fsim.Faulty here.
	FS fsim.FS
	// HeartbeatTimeout declares a worker dead when no heartbeat (or
	// successful request) has been seen for this long; default 5s.
	HeartbeatTimeout time.Duration
	// PollInterval paces the per-job supervision loop (dispatch, partial
	// polls, merge, death checks); default 100ms.
	PollInterval time.Duration
	// RequestTimeout bounds each HTTP request to a worker; default 15s.
	// With RequestAttempts retries, one logical call takes at most about
	// RequestTimeout × RequestAttempts plus backoff.
	RequestTimeout time.Duration
	// RequestAttempts is the total number of tries per worker request;
	// transient failures (transport errors, timeouts, 408/429/5xx) are
	// retried with exponential backoff and jitter. 0 means 3; 1 disables
	// retries.
	RequestAttempts int
	// RetryBaseDelay seeds the retry backoff, doubled per retry and
	// jittered; default 50ms.
	RetryBaseDelay time.Duration
	// FailThreshold is how many consecutive failed requests to one worker
	// declare it dead, independent of its heartbeat age; default 2 — one
	// transient refusal is forgiven, a flapping node is not waited out.
	FailThreshold int
	// MaxResponseBytes caps how much of a worker response is read; 0
	// sizes the cap to one full /partial cursor page (MaxRankingLimit
	// entries plus headroom), the largest response a poll can receive.
	MaxResponseBytes int64
	// Transport overrides the HTTP transport for worker requests —
	// netsim fault injection in tests and chaos drills, proxies in odd
	// deployments. nil = http.DefaultTransport.
	Transport http.RoundTripper
	// CompactBytes triggers journal compaction once the journal is larger
	// than this and twice its size after the last compaction
	// (wal.Journal.ShouldCompact); default 4 MiB.
	CompactBytes int64
	// StealThreshold flags a shard as a straggler when its projected
	// finish time (unfinished ligands / owner's observed rate) exceeds
	// this multiple of the reference ETA — the median over the job's
	// active shards, falling back to the median completed-shard duration.
	// An idle worker then steals the unfinished remainder. 0 means 3;
	// negative disables stealing.
	StealThreshold float64
	// HedgeTail speculatively re-dispatches the remaining ligands of the
	// job's last K unfinished shards to idle workers; the first complete
	// result wins and the loser is cancelled. 0 disables hedging.
	HedgeTail int
	// QuarantineFactor demotes persistently slow workers to a brownout:
	// a worker whose observed rate stays below the alive-fleet median
	// divided by this factor is quarantined — its weight in re-splits is
	// divided by the same factor and it stops receiving steals, hedges,
	// and initial equal-split shards — until its rate recovers. 0 means
	// 4; negative disables quarantine.
	QuarantineFactor float64
	// Logger receives coordinator events; default slog text to stderr.
	Logger *slog.Logger

	now func() time.Time // test hook; default time.Now
}

// journalRetryAfter is the Retry-After on a submission refused because
// its admission could not be journaled (HTTP 507), matching the service.
const journalRetryAfter = 5 * time.Second

// maxPartialEntryBytes is the sizing assumption behind the default
// response cap: one JSON partial entry with headroom for long ligand
// names and large counters.
const maxPartialEntryBytes = 512

// validate rejects nonsensical tuning before any of it journals.
func (c Config) validate() error {
	if c.RequestAttempts < 0 {
		return fmt.Errorf("dist: RequestAttempts %d must be >= 0", c.RequestAttempts)
	}
	if c.FailThreshold < 0 {
		return fmt.Errorf("dist: FailThreshold %d must be >= 0", c.FailThreshold)
	}
	if c.MaxResponseBytes < 0 {
		return fmt.Errorf("dist: MaxResponseBytes %d must be >= 0", c.MaxResponseBytes)
	}
	if c.MaxResponseBytes > 0 && c.MaxResponseBytes < 64<<10 {
		return fmt.Errorf("dist: MaxResponseBytes %d is below the 64 KiB floor (too small for a shard partial)", c.MaxResponseBytes)
	}
	if c.RetryBaseDelay < 0 {
		return fmt.Errorf("dist: RetryBaseDelay %v must be >= 0", c.RetryBaseDelay)
	}
	if c.HedgeTail < 0 {
		return fmt.Errorf("dist: HedgeTail %d must be >= 0", c.HedgeTail)
	}
	if c.QuarantineFactor > 0 && c.QuarantineFactor <= 1 {
		return fmt.Errorf("dist: QuarantineFactor %v must exceed 1 (or be 0 for the default, negative to disable)", c.QuarantineFactor)
	}
	return nil
}

func (c Config) withDefaults() Config {
	if c.HeartbeatTimeout <= 0 {
		c.HeartbeatTimeout = 5 * time.Second
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 15 * time.Second
	}
	if c.RequestAttempts == 0 {
		c.RequestAttempts = 3
	}
	if c.RetryBaseDelay == 0 {
		c.RetryBaseDelay = 50 * time.Millisecond
	}
	if c.FailThreshold == 0 {
		c.FailThreshold = 2
	}
	if c.MaxResponseBytes == 0 {
		// Sized to one full cursor page: the biggest body one poll reads.
		c.MaxResponseBytes = int64(service.MaxRankingLimit)*maxPartialEntryBytes + 64<<10
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	if c.StealThreshold == 0 {
		c.StealThreshold = 3
	}
	if c.QuarantineFactor == 0 {
		c.QuarantineFactor = 4
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	}
	if c.now == nil {
		c.now = time.Now
	}
	return c
}

// worker is one registered node. Guarded by the coordinator's mutex.
type worker struct {
	url      string
	alive    bool
	epoch    uint64 // fencing epoch, bumped on every dead→alive transition
	lastBeat time.Time
	rate     sched.RateEWMA // observed completed ligands/second across its shards
	selfRate float64        // last rate the worker reported about itself (PartialView.RateLPS)
	shards   int64          // shards ever assigned here

	// Straggler quarantine. A quarantined worker stays alive and keeps
	// its shards, but its split weight is browned out and it receives no
	// stolen or hedged work until its rate recovers.
	quarantined bool
	slowStreak  int   // consecutive assessments below the quarantine bar
	stolenFrom  int64 // shards stolen away from this worker, ever
}

// shard is one contiguous slice of a distributed job's ligands, owned by
// one worker. Guarded by the coordinator's mutex.
type shard struct {
	id      string   // "s0", "s1", ... unique within the job, stable across restarts
	worker  string   // owning worker URL
	epoch   uint64   // owner's registration epoch at assignment; immutable after creation
	ligands []string // assigned ligand names, library order
	remote  string   // worker-side job ID; "" until the dispatch is acknowledged
	done    bool     // every assigned ligand merged
	moved   bool     // fenced out: worker died, remainder stolen, or hedge race lost
	stolen  bool     // moved because an idle worker stole the unfinished remainder

	// Hedge linkage: a hedge shard carries hedgeOf = the primary shard it
	// backs; a hedged primary carries hedgedBy = its twin's ID. The two
	// cover the same unfinished ligands — first complete wins, the loser
	// is fenced (moved) and cancelled.
	hedgeOf  string
	hedgedBy string

	dispatched time.Time
	doneAt     time.Time // completion time, for straggler reference durations
	lastPoll   time.Time
	lastSeen   int // merged count at the previous poll
	errs       int // consecutive failed requests for this shard

	// The /partial cursor into the worker-side job's completion-ordered
	// records: cursor is the sequence number merged through, token the
	// worker incarnation it belongs to. Both reset when the remote job or
	// the incarnation changes; merges are idempotent, so re-reading from
	// 0 costs bandwidth, never correctness.
	cursor int
	token  string
}

// job is one distributed screen. Guarded by the coordinator's mutex.
type job struct {
	id        string
	idemKey   string
	req       service.ScreenRequest // normalized
	state     service.JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	errMsg    string

	names      []string        // target ligand names, library order
	nameSet    map[string]bool // membership of names
	merged     map[string]service.PartialEntry
	shards     []*shard
	nextShard  int
	unassigned []string // ligands awaiting (re-)assignment, library order
	resplits   int

	cancelRequested bool
	final           *JobView        // terminal snapshot (journal round-trip)
	rec             *trace.Recorder // per-shard span timeline
}

// Coordinator owns distributed-job state and the per-job supervisors.
type Coordinator struct {
	cfg     Config
	log     *slog.Logger
	cl      *client
	metrics *Metrics

	mu         sync.Mutex
	workers    map[string]*worker
	jobs       map[string]*job
	order      []string
	idem       map[string]string // idempotency key -> job ID
	nextID     uint64
	nextEpoch  uint64      // monotonic fencing-epoch counter, journaled
	fenced     []remoteRef // zombie worker-side jobs awaiting best-effort cancel
	journal    *wal.Journal
	draining   bool
	lastAssess time.Time // last quarantine assessment, rate-limited to PollInterval

	reqCtx    context.Context // lifetime context for all worker requests
	reqCancel context.CancelFunc
	done      chan struct{}
	stopOnce  sync.Once
	wg        sync.WaitGroup
}

// New builds a coordinator, replaying its journal (when DataDir is set)
// and resuming every non-terminal distributed job found there.
func New(cfg Config) (*Coordinator, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	metrics := NewMetrics()
	c := &Coordinator{
		cfg: cfg,
		log: cfg.Logger,
		cl: &client{
			hc:        &http.Client{Transport: cfg.Transport},
			timeout:   cfg.RequestTimeout,
			attempts:  cfg.RequestAttempts,
			backoff:   cfg.RetryBaseDelay,
			respLimit: cfg.MaxResponseBytes,
			onRetry:   metrics.retries.Inc,
		},
		metrics: metrics,
		workers: make(map[string]*worker),
		jobs:    make(map[string]*job),
		idem:    make(map[string]string),
		done:    make(chan struct{}),
	}
	c.reqCtx, c.reqCancel = context.WithCancel(context.Background())
	if cfg.DataDir != "" {
		if err := c.openJournal(); err != nil {
			return nil, err
		}
	}
	c.mu.Lock()
	for _, id := range c.order {
		j := c.jobs[id]
		if !j.state.Terminal() {
			c.superviseLocked(j)
		}
	}
	c.mu.Unlock()
	return c, nil
}

// Stats is the coordinator's /healthz snapshot.
type Stats struct {
	Workers            int  `json:"workers"`
	WorkersAlive       int  `json:"workers_alive"`
	WorkersQuarantined int  `json:"workers_quarantined,omitempty"`
	Jobs               int  `json:"jobs"`
	Queued             int  `json:"queued"`
	Running            int  `json:"running"`
	Draining           bool `json:"draining"`
}

// Stats snapshots coordinator-level gauges.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Stats{Workers: len(c.workers), Jobs: len(c.jobs), Draining: c.draining}
	for _, w := range c.workers {
		if w.alive {
			st.WorkersAlive++
			if w.quarantined {
				st.WorkersQuarantined++
			}
		}
	}
	for _, j := range c.jobs {
		switch j.state {
		case service.StateQueued:
			st.Queued++
		case service.StateRunning:
			st.Running++
		}
	}
	return st
}

// Ready reports readiness: the journal has been replayed (guaranteed
// once New returns) and the coordinator is not draining.
func (c *Coordinator) Ready() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return !c.draining
}

// Register upserts a worker by URL and counts as a heartbeat. A dead or
// unknown worker becomes alive under a fresh fencing epoch; shards the
// worker owned under its previous epoch are thereby invalidated — a node
// that was declared dead and comes back (a zombie, in the partition
// sense) cannot have its stale results merged, because every dispatch
// and poll compares the shard's epoch against this one. Returns the
// current membership size.
func (c *Coordinator) Register(rawURL string) (int, error) {
	u, err := url.Parse(rawURL)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return 0, fmt.Errorf("dist: worker url %q must be absolute http(s)", rawURL)
	}
	base := u.Scheme + "://" + u.Host
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	w, ok := c.workers[base]
	if !ok {
		w = &worker{url: base}
		c.workers[base] = w
	}
	if !w.alive {
		w.alive = true
		w.rate.Reset()
		w.selfRate = 0
		w.quarantined = false
		w.slowStreak = 0
		c.nextEpoch++
		w.epoch = c.nextEpoch
		c.metrics.workersJoined.Inc()
		c.appendEvent(event{Type: evWorker, Worker: base, Alive: true, Epoch: w.epoch})
		c.log.Info("worker joined", "worker", base, "epoch", w.epoch, "members", len(c.workers))
	}
	w.lastBeat = now
	return len(c.workers), nil
}

// WorkerView is one membership row on the wire. ThroughputLPS is the
// coordinator's own poll-delta estimate; SelfRateLPS is what the worker
// last reported about itself via PartialView — comparing the two is the
// first diagnostic when a shard looks slow.
type WorkerView struct {
	URL                 string  `json:"url"`
	Alive               bool    `json:"alive"`
	Epoch               uint64  `json:"epoch,omitempty"`
	HeartbeatAgeSeconds float64 `json:"heartbeat_age_seconds"`
	ThroughputLPS       float64 `json:"throughput_lps,omitempty"`
	SelfRateLPS         float64 `json:"self_rate_lps,omitempty"`
	Shards              int64   `json:"shards,omitempty"`
	Quarantined         bool    `json:"quarantined,omitempty"`
	StolenFrom          int64   `json:"stolen_from,omitempty"`
}

// Workers lists membership sorted by URL.
func (c *Coordinator) Workers() []WorkerView {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]WorkerView, 0, len(c.workers))
	for _, w := range c.workers {
		out = append(out, WorkerView{
			URL:                 w.url,
			Alive:               w.alive,
			Epoch:               w.epoch,
			HeartbeatAgeSeconds: now.Sub(w.lastBeat).Seconds(),
			ThroughputLPS:       w.rate.Value(),
			SelfRateLPS:         w.selfRate,
			Shards:              w.shards,
			Quarantined:         w.quarantined,
			StolenFrom:          w.stolenFrom,
		})
	}
	sort.Slice(out, func(a, b int) bool { return out[a].URL < out[b].URL })
	return out
}

// DebugSnapshot is the coordinator's one-call operational dump, served at
// /debug/snapshot: membership with per-worker rates and quarantine state,
// coordinator gauges, and every job with its shard table.
type DebugSnapshot struct {
	Stats   Stats        `json:"stats"`
	Workers []WorkerView `json:"workers"`
	Jobs    []JobView    `json:"jobs"`
}

// Snapshot assembles the debug dump.
func (c *Coordinator) Snapshot() DebugSnapshot {
	return DebugSnapshot{Stats: c.Stats(), Workers: c.Workers(), Jobs: c.List()}
}

// ShardView is one shard's status on the wire.
type ShardView struct {
	ID      string `json:"id"`
	Worker  string `json:"worker"`
	Epoch   uint64 `json:"epoch,omitempty"`
	Ligands int    `json:"ligands"`
	Merged  int    `json:"merged"`
	Remote  string `json:"remote,omitempty"`
	Done    bool   `json:"done,omitempty"`
	Moved   bool   `json:"moved,omitempty"`
	Stolen  bool   `json:"stolen,omitempty"`
	HedgeOf string `json:"hedge_of,omitempty"`
}

// JobView is a distributed screen on the wire (and in the journal's
// terminal records, so every field must round-trip through JSON). Result
// holds the merged ranking: partial while running, complete once done —
// the same ResultView shape a single node serves, so clients and the
// byte-identity checks need no distributed-specific decoding.
type JobView struct {
	ID          string                `json:"id"`
	State       service.JobState      `json:"state"`
	Request     service.ScreenRequest `json:"request"`
	SubmittedAt time.Time             `json:"submitted_at"`
	StartedAt   *time.Time            `json:"started_at,omitempty"`
	FinishedAt  *time.Time            `json:"finished_at,omitempty"`
	Error       string                `json:"error,omitempty"`
	Completed   int                   `json:"completed"`
	Total       int                   `json:"total"`
	Resplits    int                   `json:"resplits,omitempty"`
	Shards      []ShardView           `json:"shards,omitempty"`
	Result      *service.ResultView   `json:"result,omitempty"`
}

// Submit admits a distributed screen. The request is validated exactly
// like a single-node submission; sharding happens in the supervisor as
// workers are available, so submitting before any worker registers is
// legal — the job waits in queued.
func (c *Coordinator) Submit(req service.ScreenRequest, idemKey string) (JobView, bool, error) {
	req = req.Normalized()
	if err := req.Validate(); err != nil {
		return JobView{}, false, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.draining {
		return JobView{}, false, service.ErrDraining
	}
	if idemKey != "" {
		if id, ok := c.idem[idemKey]; ok {
			return c.viewLocked(c.jobs[id]), true, nil
		}
	}
	c.nextID++
	j := newJob(fmt.Sprintf("dscreen-%06d", c.nextID), req, idemKey, c.cfg.now())
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	if idemKey != "" {
		c.idem[idemKey] = j.id
	}
	if err := c.appendEvent(event{Type: evJob, Job: j.id, IdemKey: idemKey, Request: &j.req, Time: j.submitted}); err != nil {
		// A 202 promises the screen survives a coordinator crash, and this
		// admission never reached the journal: roll it back (the ID was
		// never exposed) and shed it like a node with a failing disk.
		delete(c.jobs, j.id)
		c.order = c.order[:len(c.order)-1]
		if idemKey != "" {
			delete(c.idem, idemKey)
		}
		c.nextID--
		return JobView{}, false, &service.ShedError{
			Err:        fmt.Errorf("%w: %v", service.ErrStorageFull, err),
			Reason:     "storage_full",
			RetryAfter: journalRetryAfter,
		}
	}
	c.metrics.submitted.Inc()
	c.superviseLocked(j)
	c.log.Info("distributed screen submitted", "job", j.id, "ligands", len(j.names))
	return c.viewLocked(j), false, nil
}

// newJob builds the in-memory job for a normalized request. Target
// ligands are materialized in library order — the order every
// deterministic aggregate sums in.
func newJob(id string, req service.ScreenRequest, idemKey string, now time.Time) *job {
	j := &job{
		id:        id,
		idemKey:   idemKey,
		req:       req,
		state:     service.StateQueued,
		submitted: now,
		merged:    make(map[string]service.PartialEntry),
		nameSet:   make(map[string]bool),
		rec:       &trace.Recorder{},
	}
	j.rec.SetEpoch(now)
	if len(req.Ligands) > 0 {
		want := make(map[string]bool, len(req.Ligands))
		for _, n := range req.Ligands {
			want[n] = true
		}
		for i := 0; i < req.Library; i++ {
			if n := core.SyntheticName(i); want[n] {
				j.names = append(j.names, n)
			}
		}
	} else {
		for i := 0; i < req.Library; i++ {
			j.names = append(j.names, core.SyntheticName(i))
		}
	}
	for _, n := range j.names {
		j.nameSet[n] = true
	}
	j.unassigned = append([]string(nil), j.names...)
	return j
}

// Get returns a job view; running jobs carry the merged partial ranking.
func (c *Coordinator) Get(id string) (JobView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobView{}, service.ErrNotFound
	}
	return c.viewLocked(j), nil
}

// List returns all jobs in submission order.
func (c *Coordinator) List() []JobView {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]JobView, 0, len(c.order))
	for _, id := range c.order {
		out = append(out, c.viewLocked(c.jobs[id]))
	}
	return out
}

// Trace returns a job's span recorder (shard lifetimes, re-splits).
func (c *Coordinator) Trace(id string) (*trace.Recorder, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return nil, service.ErrNotFound
	}
	return j.rec, nil
}

// Cancel requests cancellation. The supervisor propagates it to every
// dispatched shard and finishes the job.
func (c *Coordinator) Cancel(id string) (JobView, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	j, ok := c.jobs[id]
	if !ok {
		return JobView{}, service.ErrNotFound
	}
	if j.state.Terminal() {
		return c.viewLocked(j), service.ErrTerminal
	}
	if !j.cancelRequested {
		j.cancelRequested = true
		c.appendEvent(event{Type: evCancel, Job: j.id})
	}
	return c.viewLocked(j), nil
}

// Shutdown drains: no new submissions, supervisors stop at their next
// step (worker-side jobs keep running and are picked back up if the
// coordinator restarts over the same journal).
func (c *Coordinator) Shutdown(ctx context.Context) error {
	c.mu.Lock()
	c.draining = true
	c.mu.Unlock()
	c.stopOnce.Do(func() {
		close(c.done)
		// Cancel in-flight worker requests so supervisors blocked in a
		// retry or against a blackholed worker exit promptly.
		c.reqCancel()
	})
	done := make(chan struct{})
	go func() { c.wg.Wait(); close(done) }()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.mu.Lock()
	if c.journal != nil {
		c.journal.Close()
		c.journal = nil
	}
	c.mu.Unlock()
	return err
}

// superviseLocked starts the job's supervision loop. Caller holds c.mu.
func (c *Coordinator) superviseLocked(j *job) {
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		t := time.NewTicker(c.cfg.PollInterval)
		defer t.Stop()
		for {
			if c.step(j) {
				return
			}
			select {
			case <-t.C:
			case <-c.done:
				return
			}
		}
	}()
}

// viewLocked snapshots a job. Caller holds c.mu.
func (c *Coordinator) viewLocked(j *job) JobView {
	if j.final != nil {
		return *j.final
	}
	v := JobView{
		ID:          j.id,
		State:       j.state,
		Request:     j.req,
		SubmittedAt: j.submitted,
		Error:       j.errMsg,
		Completed:   len(j.merged),
		Total:       len(j.names),
		Resplits:    j.resplits,
	}
	if !j.started.IsZero() {
		t := j.started
		v.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.FinishedAt = &t
	}
	for _, sh := range j.shards {
		mv := 0
		for _, n := range sh.ligands {
			if _, ok := j.merged[n]; ok {
				mv++
			}
		}
		v.Shards = append(v.Shards, ShardView{
			ID: sh.id, Worker: sh.worker, Epoch: sh.epoch, Ligands: len(sh.ligands),
			Merged: mv, Remote: sh.remote, Done: sh.done, Moved: sh.moved,
			Stolen: sh.stolen, HedgeOf: sh.hedgeOf,
		})
	}
	if len(j.merged) > 0 {
		v.Result = j.resultLocked()
	}
	return v
}

// resultLocked builds the merged ResultView from the entries merged so
// far: ranking sorted score-then-name (the engine's exact tie-break),
// totals summed in library order so the floating-point sums match a
// single-node run bit for bit.
func (j *job) resultLocked() *service.ResultView {
	rv := &service.ResultView{RankingTotal: len(j.merged)}
	entries := make([]service.PartialEntry, 0, len(j.merged))
	for _, e := range j.merged {
		entries = append(entries, e)
	}
	sort.Slice(entries, func(a, b int) bool {
		if entries[a].Score != entries[b].Score {
			return entries[a].Score < entries[b].Score
		}
		return entries[a].Ligand < entries[b].Ligand
	})
	for i, e := range entries {
		rv.Ranking = append(rv.Ranking, service.RankEntry{
			Rank: i + 1, Ligand: e.Ligand, Atoms: e.Atoms, Score: e.Score, Spot: e.Spot,
		})
	}
	for _, n := range j.names {
		if e, ok := j.merged[n]; ok {
			rv.SimulatedSeconds += e.SimSeconds
			rv.Evaluations += e.Evaluations
		}
	}
	return rv
}
