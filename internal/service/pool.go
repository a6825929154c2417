package service

import (
	"context"
	"errors"
	"fmt"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/obs"
	"github.com/metascreen/metascreen/internal/rng"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/trace"
)

// The worker pool: N goroutines drain the bounded queue, each running one
// screen at a time through the core engine with a per-job context. The
// pool exits when the queue closes (shutdown).
//
// Failure policy: a panicking runner is recovered (the worker survives to
// serve the next job), transient failures retry with exponential backoff
// and deterministic jitter up to Config.MaxAttempts, and permanent
// failures fail the job immediately with the typed cause in its record.

// maxRetryDelay caps the exponential backoff between attempts.
const maxRetryDelay = 5 * time.Second

// worker is one pool goroutine's life: pop fairly, wait for a slot in
// the adaptive concurrency window, run. When the AIMD limiter has shrunk
// the window below the worker count, the surplus workers park in Acquire
// — the backend sees at most Limit concurrent jobs even though the pool
// has more goroutines.
func (s *Service) worker() {
	defer s.workers.Done()
	for {
		j, ok := s.queue.pop()
		if !ok {
			return
		}
		if !s.ctrl.Limiter.Acquire() {
			// Limiter closed: shutdown already cancelled every queued job.
			return
		}
		s.runJob(j)
		s.ctrl.Limiter.Release()
	}
}

// runJob executes one claimed job through its full lifecycle, including
// transient-failure retries.
func (s *Service) runJob(j *Job) {
	s.mu.Lock()
	if j.state != StateQueued {
		// Cancelled (or shut down) while waiting in the queue.
		s.mu.Unlock()
		return
	}
	if !j.deadline.IsZero() && s.ctrl.ShouldCull(s.now(), j.deadline) {
		// The deadline can no longer be met even if the job starts right
		// now: shed it instead of burning a worker on a doomed run.
		s.metrics.shed.Inc("deadline_dequeue")
		s.finishLocked(j, StateShed, nil, "shed: deadline unmeetable at dequeue")
		s.mu.Unlock()
		return
	}
	// The base context lives for all attempts; Cancel aborts the current
	// attempt and any backoff in between.
	base, cancel := context.WithCancel(context.Background())
	j.state = StateRunning
	j.started = s.now()
	j.cancel = cancel
	s.ctrl.ObserveQueueWait(j.started.Sub(j.submitted))
	s.metrics.classQueue.Observe(j.class.String(), j.started.Sub(j.submitted).Seconds())
	// A job recovered from the journal resumes its attempt numbering where
	// the dead process left off, with a fresh retry budget for this boot.
	first := j.attempts + 1
	id, req, run := j.id, j.req, s.run
	// Graceful degradation: under queue pressure, shrink this job's search
	// effort instead of failing outright. The reduced scale is recorded on
	// the job so results are never silently rescaled.
	fill := float64(s.queue.depth()) / float64(s.cfg.QueueDepth)
	if f := s.ctrl.EffortFactor(fill); f < 1 {
		j.degraded = true
		j.effortFactor = f
		j.effectiveScale = req.Scale * f
		req.Scale = j.effectiveScale
		s.metrics.degraded.Inc()
		s.log.Info("job degraded under pressure", "job", id,
			"fill", fill, "effort_factor", f, "effective_scale", req.Scale)
	}
	jobDeadline := j.deadline
	if j.rec == nil {
		// Recovered job: its recorder died with the previous process.
		j.rec = &trace.Recorder{}
		if !j.submitted.IsZero() {
			j.rec.SetEpoch(j.submitted)
		}
	}
	rec, submitted, startedAt := j.rec, j.submitted, j.started
	s.appendEvent(jobEvent{Type: evStarted, Job: id, Time: j.started, Attempt: first})
	s.mu.Unlock()
	defer cancel()

	logger := s.log.With("job", id)
	logger.Info("job started", "attempt", first,
		"queue_seconds", startedAt.Sub(submitted).Seconds())
	// Everything the screen does below runs with the job's recorder and a
	// job-correlated logger in its context; the engine picks both up.
	base = trace.NewContext(obs.NewContext(base, logger), rec)

	s.metrics.busy.Add(1)
	defer s.metrics.busy.Add(-1)

	var (
		res *core.ScreenResult
		err error
	)
	for attempt := first; ; attempt++ {
		attemptCtx := base
		acancel := func() {}
		if req.TimeoutSeconds > 0 {
			attemptCtx, acancel = context.WithTimeout(base,
				time.Duration(req.TimeoutSeconds*float64(time.Second)))
		}
		dcancel := func() {}
		if !jobDeadline.IsZero() {
			attemptCtx, dcancel = context.WithDeadline(attemptCtx, jobDeadline)
		}
		attemptStart := s.now()
		res, err = s.safeRun(run, attemptCtx, id, req)
		dcancel()
		acancel()
		s.ctrl.ObserveAttempt(s.now().Sub(attemptStart))
		rec.AddSpan(trace.Span{
			Track: "screen",
			Name:  "attempt " + strconv.Itoa(attempt),
			Cat:   trace.CatScreen,
			Start: attemptStart.Sub(submitted).Seconds(),
			End:   s.now().Sub(submitted).Seconds(),
			Args:  map[string]string{"job": id, "attempt": strconv.Itoa(attempt)},
		})

		s.mu.Lock()
		j.attempts = attempt
		if err != nil {
			j.lastErr = err.Error()
			s.appendEvent(jobEvent{Type: evAttempt, Job: id, Attempt: attempt, Error: j.lastErr})
		}
		s.mu.Unlock()

		if err == nil || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			!transientErr(err) || attempt-first+1 >= s.cfg.MaxAttempts {
			break
		}
		delay := s.retryDelay(id, attempt)
		if !jobDeadline.IsZero() && s.now().Add(delay).After(jobDeadline) {
			// The backoff would outlive the job's deadline; failing now is
			// strictly better than sleeping only to fail on wake.
			s.metrics.shed.Inc("deadline_backoff")
			err = fmt.Errorf("service: job deadline would expire during retry backoff (%v sleep, %v remaining): %w",
				delay.Round(time.Millisecond), jobDeadline.Sub(s.now()).Round(time.Millisecond), err)
			break
		}
		s.metrics.jobRetries.Inc()
		logger.Warn("attempt failed, retrying", "attempt", attempt, "err", err,
			"backoff", delay)
		if !s.sleepRetry(base, delay) {
			err = context.Canceled
			break
		}
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.crashed {
		// Simulated process death: no terminal transition and no journal
		// record, exactly as if the worker died mid-run. The next boot over
		// the data dir re-enqueues the job.
		return
	}
	// The breaker's failure signal: this job's final attempt lost every
	// device of its simulated platform.
	j.deviceLost = err != nil && errors.Is(err, sched.ErrAllDevicesLost)
	switch {
	case err == nil:
		s.ctrl.ObserveRun(s.now().Sub(j.started))
		s.finishLocked(j, StateDone, res, "")
	case errors.Is(err, context.Canceled):
		s.finishLocked(j, StateCancelled, nil, "cancelled while running")
	case errors.Is(err, context.DeadlineExceeded):
		msg := fmt.Sprintf("deadline exceeded after %gs", req.TimeoutSeconds)
		if !jobDeadline.IsZero() && !s.now().Before(jobDeadline) {
			msg = "job deadline exceeded while running"
		}
		s.finishLocked(j, StateFailed, nil, msg)
	default:
		s.finishLocked(j, StateFailed, nil, err.Error())
	}
}

// safeRun executes one attempt, converting a runner panic into an error
// so a bad job cannot take the worker goroutine down with it.
func (s *Service) safeRun(run runnerFunc, ctx context.Context, id string, req ScreenRequest) (res *core.ScreenResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.metrics.workerPanics.Inc()
			res = nil
			err = fmt.Errorf("service: worker panic: %v", r)
		}
	}()
	return run(ctx, id, req)
}

// transientErr classifies a failure as retryable: a transient simulated
// device error, or any error advertising Transient() == true.
func transientErr(err error) bool {
	if cudasim.IsTransient(err) {
		return true
	}
	var t interface{ Transient() bool }
	if errors.As(err, &t) {
		return t.Transient()
	}
	return false
}

// retryDelay computes the backoff before retry number `attempt`: the
// base delay doubles per retry with a deterministic jitter derived from
// the job ID (so test runs are reproducible without a global RNG). It is
// computed separately from the sleep so the caller can compare it against
// the job's deadline before committing to the wait.
func (s *Service) retryDelay(jobID string, attempt int) time.Duration {
	delay := s.cfg.RetryBaseDelay << (attempt - 1)
	if delay > maxRetryDelay || delay <= 0 {
		delay = maxRetryDelay
	}
	// Jitter factor in [0.5, 1.5), hashed from the job and attempt.
	return rng.Jitter(delay, 0.5, jobID, uint64(attempt))
}

// sleepRetry waits out one retry backoff; false means the job was
// cancelled during the wait.
func (s *Service) sleepRetry(ctx context.Context, delay time.Duration) bool {
	t := time.NewTimer(delay)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// runScreen is the production runner: it materializes the request into
// the exact same core screen call a library user would write, so a
// service job and a library screen with equal parameters and seed return
// identical rankings. A request naming specific Ligands screens just that
// shard of the library, in library order. Every attempt resumes from the
// job's ligand records — those of earlier attempts and, after a restart,
// those replayed from the journal — and files each new completion through
// recordLigand. Seed lanes are keyed by ligand name, so the resumed
// ranking is byte-identical to an uninterrupted run.
func (s *Service) runScreen(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
	ds, err := core.DatasetByName(req.Dataset)
	if err != nil {
		return nil, err
	}
	backf, err := req.backendFactory()
	if err != nil {
		return nil, err
	}
	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(req.Metaheuristic, req.Scale)
	}
	lib := core.SyntheticLibrary(req.Library)
	if len(req.Ligands) > 0 {
		lib = filterLibrary(lib, req.Ligands)
	}
	spotOpts := surface.Options{MaxSpots: req.Spots}

	cp := &core.Checkpoint{Seed: req.Seed, Ligands: make(map[string]core.LigandRecord)}
	s.mu.Lock()
	if j, ok := s.jobs[id]; ok {
		for _, rec := range j.records {
			cp.Ligands[rec.Name] = rec
		}
	}
	s.mu.Unlock()
	onRecord := func(rec core.LigandRecord, newly int) error {
		s.recordLigand(id, rec, newly)
		return nil
	}
	return core.ScreenResumableCtx(ctx, ds.Receptor, lib, spotOpts, forcefield.Options{},
		algf, backf, req.Seed, s.cfg.ScreenWorkers, cp, onRecord)
}

// filterLibrary keeps the named ligands, preserving library order so
// aggregate sums stay deterministic. Validation already guaranteed every
// name exists.
func filterLibrary(lib []*molecule.Molecule, names []string) []*molecule.Molecule {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	out := lib[:0:0]
	for _, lig := range lib {
		if want[lig.Name] {
			out = append(out, lig)
		}
	}
	return out
}
