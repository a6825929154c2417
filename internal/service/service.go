// Package service turns the metascreen engine into a long-running
// screening service: submitted screens become queued jobs, a bounded
// worker pool drains them through internal/core, and an HTTP JSON API
// (plus a Prometheus-text /metrics endpoint) exposes the whole lifecycle.
//
// The package is the chassis for production deployment of the paper's
// engine — the drug-discovery funnel as a server rather than a library
// call. Its contracts:
//
//   - Admission control: the queue is bounded; a full queue rejects with
//     ErrQueueFull (HTTP 429) instead of buffering unbounded memory.
//   - Cancellation: every running job has its own context.Context; DELETE
//     aborts it between metaheuristic generations via core.RunCtx.
//   - Determinism: a job's ranking is byte-identical to the same screen
//     run through the library API with the same request and seed.
//   - Graceful drain: Shutdown stops intake, cancels still-queued jobs,
//     and lets running jobs finish (until the shutdown context expires,
//     at which point they are force-cancelled).
//
// The worker pool and the metrics counters are shared mutable state; run
// the package tests with -race (see the repo's CI workflow).
package service

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand/v2"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/trace"
	"github.com/metascreen/metascreen/internal/wal"
)

// Config sizes the service.
type Config struct {
	// Workers is the number of concurrent screening workers;
	// 0 means runtime.GOMAXPROCS(0).
	Workers int
	// QueueDepth bounds the number of admitted-but-not-started jobs;
	// 0 means 64.
	QueueDepth int
	// ScreenWorkers bounds the per-job ligand parallelism handed to
	// core.ScreenCtx; 0 means one goroutine per CPU (fine for a single
	// job at a time; set to 1 when Workers is large to avoid
	// oversubscription).
	ScreenWorkers int
	// MaxAttempts bounds how many times a job whose failures classify as
	// transient is executed before it is failed; 0 means 3, 1 disables
	// retries. Permanent failures never retry.
	MaxAttempts int
	// RetryBaseDelay is the backoff before the first retry; it doubles
	// per retry (jittered, capped at 5s). 0 means 100ms.
	RetryBaseDelay time.Duration

	// DataDir enables durability: job lifecycle events and one record per
	// completed ligand are journaled to <DataDir>/journal, so a crashed
	// process resumes its jobs on the next boot over the same directory,
	// re-docking only ligands without a record. Empty keeps everything in
	// memory (the pre-durability behaviour).
	DataDir string
	// Fsync is the journal's fsync policy; the zero value is
	// wal.SyncAlways. Only meaningful with DataDir.
	Fsync wal.SyncPolicy
	// FsyncInterval is the wal.SyncInterval cadence; 0 means 100ms.
	FsyncInterval time.Duration
	// CompactBytes compacts the journal into per-job snapshots once it
	// is larger than this and twice its size after the last compaction
	// (wal.Journal.ShouldCompact); 0 means 4 MiB.
	CompactBytes int64
	// FS is the filesystem the journal writes through; nil means the real
	// one. The -disk-chaos flag and the crash-point explorer inject a
	// fsim.Faulty here.
	FS fsim.FS

	// Admission tunes overload protection (adaptive concurrency limiter,
	// circuit breaker, deadline shedding, graceful degradation). Zero
	// fields take their documented defaults; Workers is seeded from
	// Config.Workers when unset. See package admission.
	Admission admission.Config

	// Clock is the service's time source; nil means time.Now. Tests pin
	// it so admission decisions and timestamps are deterministic.
	Clock func() time.Time

	// Logger receives the service's structured logs; every job-scoped
	// record carries a "job" attribute for correlation. Nil discards.
	Logger *slog.Logger
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.RetryBaseDelay <= 0 {
		c.RetryBaseDelay = 100 * time.Millisecond
	}
	if c.CompactBytes <= 0 {
		c.CompactBytes = 4 << 20
	}
	return c
}

// runnerFunc executes one screen; tests substitute a controllable stub.
// The job ID keys the ligand records the production runner resumes from.
type runnerFunc func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error)

// Service is the screening service: job registry, bounded queue, worker
// pool and metrics. Create it with New, serve its Handler, stop it with
// Shutdown.
type Service struct {
	cfg     Config
	metrics *Metrics
	log     *slog.Logger
	started time.Time

	mu       sync.Mutex
	jobs     map[string]*Job
	order    []string // submission order, for List
	nextID   uint64
	draining bool

	queue   *jobQueue
	ctrl    *admission.Controller
	workers sync.WaitGroup
	run     runnerFunc

	// Durability (nil journal when DataDir is unset).
	journal  *wal.Journal
	idem     map[string]string // idempotency key -> job ID
	recovery RecoveryStats
	crashed  bool // crashForTest: suppress terminal side effects

	// Storage-degraded read-only mode (see enterDegradedLocked): new
	// submissions shed with 507 while reads keep serving; probes flip the
	// service back once the disk takes writes again.
	storageDegraded  bool
	storageReason    string // "disk_full" or "io_error"
	storageSince     time.Time
	lastStorageProbe time.Time
	storageNotify    chan struct{}
	storageOnce      sync.Once

	// recordHook observes each journaled ligand record; recovery tests
	// use it to crash at a deterministic mid-screen point.
	recordHook func(jobID string, newly int)

	// incarnation distinguishes this process's /partial cursor sequences
	// from those of an earlier boot over the same data dir, whose record
	// order a consumer must not resume into.
	incarnation string

	// lastWarmup holds the most recent warm-up Percent factors reported
	// by a finished job's backend, for the debug snapshot.
	lastWarmup map[string][]float64

	// ready flips once New finished booting: journal replayed, worker
	// pool started. /readyz reports it (false again while draining).
	ready bool

	// now is the clock; tests pin it for stable timestamps.
	now func() time.Time
}

// New builds a service and starts its worker pool. With Config.DataDir
// set, it first replays the journal found there: the job table is rebuilt,
// finished jobs keep their rankings, and interrupted jobs are re-enqueued
// to resume from their journaled ligand records.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	now := time.Now
	if cfg.Clock != nil {
		now = cfg.Clock
	}
	acfg := cfg.Admission
	if acfg.Workers == 0 {
		acfg.Workers = cfg.Workers
	}
	if acfg.Now == nil {
		acfg.Now = now
	}
	s := &Service{
		cfg:     cfg,
		metrics: NewMetrics(),
		log:     cfg.Logger,
		started: now(),
		jobs:    make(map[string]*Job),
		idem:    make(map[string]string),
		queue:   newJobQueue(cfg.QueueDepth),
		ctrl:    admission.NewController(acfg),
		now:     now,

		incarnation:   strconv.FormatUint(rand.Uint64(), 36),
		storageNotify: make(chan struct{}),
	}
	if s.log == nil {
		s.log = obs.Nop()
	}
	s.run = s.runScreen
	if cfg.DataDir != "" {
		if err := s.openJournal(); err != nil {
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	s.mu.Lock()
	s.ready = true
	s.mu.Unlock()
	return s, nil
}

// Recovery reports what this instance replayed and re-enqueued at boot;
// all zeros without a DataDir or on a fresh one.
func (s *Service) Recovery() RecoveryStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovery
}

// storageRetryAfter is the Retry-After handed to submissions shed in
// storage-degraded mode: long enough that clients do not hammer a full
// disk, short enough to notice space being freed promptly.
const storageRetryAfter = 5 * time.Second

// StorageFull is closed the first time the service enters
// storage-degraded mode. vsserved's -on-full=stop policy drains on it;
// the default -on-full=degrade keeps serving reads.
func (s *Service) StorageFull() <-chan struct{} { return s.storageNotify }

// Submit validates and enqueues a screen, returning the queued job's
// snapshot. It fails fast with ErrQueueFull or ErrDraining.
func (s *Service) Submit(req ScreenRequest) (JobView, error) {
	v, _, err := s.SubmitIdem(req, "")
	return v, err
}

// SubmitIdem is Submit with an idempotency key: when key is non-empty and
// a job — live or journaled before a crash — was already admitted under
// it, that job's snapshot is returned with existing=true instead of
// double-submitting. Clients that retry submissions across timeouts and
// server restarts should always send a key.
func (s *Service) SubmitIdem(req ScreenRequest, key string) (v JobView, existing bool, err error) {
	req = req.withDefaults()
	if err := req.Validate(); err != nil {
		return JobView{}, false, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if key != "" {
		if id, ok := s.idem[key]; ok {
			return s.jobs[id].view(), true, nil
		}
	}
	if s.draining {
		return JobView{}, false, ErrDraining
	}
	// Storage-degraded read-only mode: a 202 must mean the submission is
	// journaled, which a failed disk cannot promise. Each rejected submit
	// is also a (rate-limited) recovery probe, so journaling resumes
	// without a restart once space is freed.
	if s.storageDegraded && !s.tryRecoverStorageLocked() {
		return JobView{}, false, s.shedLocked(ErrStorageFull, "storage_full", storageRetryAfter)
	}

	// Admission pipeline: breaker gate (machine jobs only), deadline
	// feasibility, then the bounded fair queue. Rejections never allocate
	// a job ID and always carry a computed Retry-After.
	var probe bool
	if req.Machine != "" {
		allowed, p := s.ctrl.Breaker.Allow()
		if !allowed {
			return JobView{}, false, s.shedLocked(ErrBreakerOpen, "breaker_open", s.ctrl.RetryAfterBreaker())
		}
		probe = p
	}
	var deadline time.Time
	if req.DeadlineSeconds > 0 {
		now := s.now()
		deadline = now.Add(time.Duration(req.DeadlineSeconds * float64(time.Second)))
		if ok, retry := s.ctrl.CanMeetDeadline(now, deadline); !ok {
			if probe {
				s.ctrl.Breaker.ReleaseProbe()
			}
			return JobView{}, false, s.shedLocked(ErrDeadlineUnmeetable, "deadline_admission", retry)
		}
	}
	class, _ := admission.ParseClass(req.Priority) // validated above

	s.nextID++
	j := &Job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		state:     StateQueued,
		req:       req,
		submitted: s.now(),
		idemKey:   key,
		class:     class,
		deadline:  deadline,
		probe:     probe,
		rec:       &trace.Recorder{},
	}
	j.rec.SetEpoch(j.submitted)
	if err := s.queue.tryPush(j); err != nil {
		s.nextID-- // the ID was never exposed
		if probe {
			s.ctrl.Breaker.ReleaseProbe()
		}
		s.metrics.rejected.Inc()
		return JobView{}, false, s.shedLocked(err, "queue_full", s.ctrl.RetryAfterFull())
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.idem[key] = j.id
	}
	s.metrics.submitted.Inc()
	if !s.appendEvent(jobEvent{
		Type: evSubmitted, Job: j.id, Time: j.submitted,
		Request: &j.req, IdemKey: key,
	}) && s.journal != nil {
		// The ack oracle: a 202 promises the submission survives a crash,
		// and this one's record never reached the journal. Shed the job
		// (the queued entry is skipped when popped) instead of acking.
		if key != "" {
			delete(s.idem, key)
		}
		j.idemKey = ""
		s.finishLocked(j, StateShed, nil, "shed: journal unavailable at admission")
		return JobView{}, false, s.shedLocked(ErrStorageFull, "storage_full", storageRetryAfter)
	}
	s.log.Info("job submitted", "job", j.id,
		"dataset", req.Dataset, "library", req.Library,
		"metaheuristic", req.Metaheuristic, "machine", req.Machine)
	return j.view(), false, nil
}

// shedLocked counts and logs one overload rejection and wraps it as a
// ShedError carrying the Retry-After and queue state. Caller holds s.mu.
func (s *Service) shedLocked(err error, reason string, retryAfter time.Duration) error {
	s.metrics.shed.Inc(reason)
	depth := s.queue.depth()
	s.log.Warn("request shed", "reason", reason, "err", err,
		"retry_after_seconds", retryAfter.Seconds(), "queue_depth", depth)
	return &ShedError{
		Err:        err,
		Reason:     reason,
		RetryAfter: retryAfter,
		QueueDepth: depth,
		Limit:      s.cfg.QueueDepth,
	}
}

// Get returns a job snapshot.
func (s *Service) Get(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	return j.view(), nil
}

// Trace returns a job's span recorder for timeline export. A job restored
// from the journal lost its recorder with the previous process; a fresh
// one is built from its lifecycle timestamps so the trace endpoint still
// serves a (sparse) timeline.
func (s *Service) Trace(id string) (*trace.Recorder, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return nil, ErrNotFound
	}
	if j.rec == nil {
		j.rec = &trace.Recorder{}
		if !j.submitted.IsZero() {
			j.rec.SetEpoch(j.submitted)
		}
		if j.state.Terminal() && !j.finished.IsZero() {
			s.recordJobSpans(j)
		}
	}
	return j.rec, nil
}

// List returns every job in submission order.
func (s *Service) List() []JobView {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobView, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.jobs[id].view())
	}
	return out
}

// Cancel aborts a job: a queued job is marked cancelled immediately (the
// worker that later pops it skips it), a running job has its context
// cancelled and finishes as cancelled once the engine notices, between
// generations. Cancelling a terminal job returns ErrTerminal.
func (s *Service) Cancel(id string) (JobView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return JobView{}, ErrNotFound
	}
	switch j.state {
	case StateQueued:
		s.finishLocked(j, StateCancelled, nil, "cancelled while queued")
	case StateRunning:
		// Journal the intent before signalling: if the process dies before
		// the job finishes, replay sees the cancel and does not resurrect
		// the job.
		j.cancelRequested = true
		s.appendEvent(jobEvent{Type: evCancel, Job: j.id, Time: s.now()})
		j.cancel()
	default:
		return j.view(), ErrTerminal
	}
	return j.view(), nil
}

// finishLocked moves a job to a terminal state, records it in the metrics
// and journals the full final snapshot. Caller holds s.mu.
func (s *Service) finishLocked(j *Job, state JobState, res *core.ScreenResult, errMsg string) {
	j.state = state
	j.finished = s.now()
	j.err = errMsg
	j.result = res
	j.cancel = nil
	// Resolve the breaker's view of this job exactly once: a finished
	// machine job is the health signal. Success closes/keeps-closed, an
	// all-devices-lost failure counts toward tripping, and anything else
	// (cancel, shed, unrelated failure) just returns a held probe slot.
	if j.req.Machine != "" {
		switch {
		case state == StateDone:
			s.ctrl.Breaker.Success()
		case j.deviceLost:
			s.ctrl.Breaker.Failure()
		case j.probe:
			s.ctrl.Breaker.ReleaseProbe()
		}
	}
	s.metrics.Finished(state, j.finished.Sub(j.submitted))
	if !j.started.IsZero() {
		s.metrics.JobTimes(j.started.Sub(j.submitted), j.finished.Sub(j.started))
	}
	if res != nil {
		s.metrics.Work(res.Evaluations, res.SimulatedSeconds, res.DeviceFaults, res.Resplits)
		s.observeGenerations(res)
		if res.WarmupFactors != nil {
			s.lastWarmup = res.WarmupFactors
		}
	}
	s.recordJobSpans(j)
	if s.journal != nil {
		v := j.view()
		s.appendEvent(jobEvent{Type: evTerminal, Job: j.id, Time: j.finished, View: &v})
	}
	s.log.Info("job finished", "job", j.id, "state", string(state),
		"latency_seconds", j.finished.Sub(j.submitted).Seconds(), "err", errMsg)
}

// observeGenerations feeds every ligand run's per-generation simulated
// durations into the generation histogram.
func (s *Service) observeGenerations(res *core.ScreenResult) {
	for _, e := range res.Ranking {
		if e.Result == nil {
			continue
		}
		prev := 0.0
		for _, gp := range e.Result.History {
			s.metrics.genSim.Observe(gp.SimSeconds - prev)
			prev = gp.SimSeconds
		}
	}
}

// recordJobSpans closes out a terminal job's wall-clock spans: the queued
// interval and the whole job interval, both relative to submission (the
// recorder's epoch). Caller holds s.mu.
func (s *Service) recordJobSpans(j *Job) {
	if j.rec == nil {
		return
	}
	if !j.started.IsZero() {
		j.rec.AddSpan(trace.Span{
			Track: "job", Name: "queued", Cat: trace.CatJob,
			Start: 0, End: j.started.Sub(j.submitted).Seconds(),
		})
	}
	j.rec.AddSpan(trace.Span{
		Track: "job", Name: "job " + j.id, Cat: trace.CatJob,
		Start: 0, End: j.finished.Sub(j.submitted).Seconds(),
		Args: map[string]string{"job": j.id, "state": string(j.state)},
	})
}

// Shutdown drains the service: intake stops (further Submits return
// ErrDraining), still-queued jobs are cancelled, and running jobs get to
// finish. When ctx expires first, running jobs are force-cancelled and
// Shutdown still waits for the workers to wind down before returning
// ctx's error. Shutdown is idempotent.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		for _, id := range s.order {
			if j := s.jobs[id]; j.state == StateQueued {
				s.finishLocked(j, StateCancelled, nil, "cancelled at shutdown")
			}
		}
		s.queue.close()
		// Wake workers blocked in the concurrency limiter; their remaining
		// queued jobs were just cancelled above.
		s.ctrl.Close()
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.workers.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		s.mu.Lock()
		for _, id := range s.order {
			if j := s.jobs[id]; j.state == StateRunning {
				j.cancel()
			}
		}
		s.mu.Unlock()
		<-done
		err = ctx.Err()
	}
	s.mu.Lock()
	if s.journal != nil {
		s.journal.Close()
		s.journal = nil
	}
	s.mu.Unlock()
	return err
}

// crashForTest simulates kill -9 for the crash-recovery tests: from this
// point nothing further reaches the journal or triggers terminal side
// effects — exactly as if the process died — while the goroutines are
// still wound down so the test can reopen the data dir race-free. The
// journal bytes already written (synced per policy) are what the next boot
// sees.
func (s *Service) crashForTest() {
	s.mu.Lock()
	s.crashed = true
	s.journal = nil // drop without Close: no final sync, like SIGKILL
	s.draining = true
	s.queue.close()
	s.ctrl.Close()
	for _, id := range s.order {
		if j := s.jobs[id]; j.state == StateRunning && j.cancel != nil {
			j.cancel()
		}
	}
	s.mu.Unlock()
	s.workers.Wait()
}

// Stats is a point-in-time operational snapshot (also the source of the
// /metrics gauges).
type Stats struct {
	QueueDepth int  `json:"queue_depth"`
	Running    int  `json:"running"`
	Workers    int  `json:"workers"`
	Draining   bool `json:"draining"`
	// QueueByClass splits QueueDepth by priority class.
	QueueByClass map[string]int `json:"queue_by_class,omitempty"`
	// Limit and InFlight are the adaptive concurrency limiter's current
	// window and occupancy; Breaker is the device-health circuit state
	// ("closed", "half-open" or "open").
	Limit    int    `json:"limit"`
	InFlight int    `json:"in_flight"`
	Breaker  string `json:"breaker"`
	// StorageDegraded reports read-only mode after a journal I/O failure;
	// StorageReason is "disk_full" or "io_error" while degraded.
	StorageDegraded bool   `json:"storage_degraded,omitempty"`
	StorageReason   string `json:"storage_reason,omitempty"`
}

// Stats snapshots the live gauges.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	snap := s.ctrl.Snapshot()
	st := Stats{
		QueueDepth:      s.queue.depth(),
		Workers:         s.cfg.Workers,
		Draining:        s.draining,
		QueueByClass:    make(map[string]int),
		Limit:           snap.Limit,
		InFlight:        snap.InFlight,
		Breaker:         snap.Breaker,
		StorageDegraded: s.storageDegraded,
		StorageReason:   s.storageReason,
	}
	for _, c := range admission.Classes() {
		st.QueueByClass[c.String()] = s.queue.depthClass(c)
	}
	for _, j := range s.jobs {
		if j.state == StateRunning {
			st.Running++
		}
	}
	return st
}
