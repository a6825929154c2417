package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/admission"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/sched"
)

// The overload-protection contract at the service layer: a saturating
// burst never wedges or leaks, deadlines are enforced at admission,
// dequeue and retry backoff, the device-health breaker opens and
// recovers, degradation is recorded on the job, and a journaled cancel
// survives replay.

// TestOverloadBurst saturates a 2-worker service with 200 concurrent
// submissions across priorities and clients (run with -race). Every
// accepted job must reach a terminal state, every rejection must be a
// typed ShedError, and the goroutine count must settle after shutdown —
// no worker, limiter or queue goroutine may leak.
func TestOverloadBurst(t *testing.T) {
	before := runtime.NumGoroutine()
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		return stubResult(), nil
	}
	s, err := New(Config{Workers: 2, QueueDepth: 32, Admission: admission.Config{TargetLatency: 50 * time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	s.run = run

	priorities := []string{"high", "normal", "low"}
	var (
		wg       sync.WaitGroup
		accepted sync.Map
		shed     atomic.Int64
	)
	for i := 0; i < 200; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := s.Submit(ScreenRequest{
				Seed:     uint64(i),
				Priority: priorities[i%len(priorities)],
				ClientID: fmt.Sprintf("client-%d", i%4),
			})
			if err != nil {
				var se *ShedError
				if !errors.As(err, &se) {
					t.Errorf("submit %d: untyped rejection %v", i, err)
				} else if se.RetryAfter <= 0 || se.Limit != 32 {
					t.Errorf("submit %d: shed error %+v lacks retry/limit", i, se)
				}
				shed.Add(1)
				return
			}
			accepted.Store(v.ID, true)
		}(i)
	}
	wg.Wait()

	accepted.Range(func(k, _ any) bool {
		id := k.(string)
		waitFor(t, func() bool {
			v, err := s.Get(id)
			return err == nil && v.State.Terminal()
		})
		return true
	})

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	// The burst may have been fully absorbed (queue bound 32 but workers
	// drain concurrently); when it was not, rejections must be counted.
	if n := shed.Load(); n > 0 {
		if s.metrics.shed.Values()["queue_full"] == 0 {
			t.Error("queue_full rejections not counted in metrics")
		}
	}
	waitFor(t, func() bool { return runtime.NumGoroutine() <= before+5 })
}

// TestDeadlineAdmission trains the controller's run-time estimate and
// checks an unmeetable deadline_seconds request is rejected up front with
// a typed, Retry-After-carrying error, while a generous deadline is
// admitted and stamped on the view.
func TestDeadlineAdmission(t *testing.T) {
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		return stubResult(), nil
	})
	// White-box: pin the EWMAs so the decision is deterministic.
	s.ctrl.ObserveQueueWait(2 * time.Second)
	s.ctrl.ObserveRun(2 * time.Second)

	_, err := s.Submit(ScreenRequest{Seed: 1, DeadlineSeconds: 0.5})
	if !errors.Is(err, ErrDeadlineUnmeetable) {
		t.Fatalf("got %v, want ErrDeadlineUnmeetable", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "deadline_admission" || se.RetryAfter <= 0 {
		t.Fatalf("shed error %+v", err)
	}

	v, err := s.Submit(ScreenRequest{Seed: 2, DeadlineSeconds: 60})
	if err != nil {
		t.Fatalf("generous deadline rejected: %v", err)
	}
	if v.DeadlineAt == nil {
		t.Error("admitted deadline job has no DeadlineAt on its view")
	}
	if got := s.metrics.shed.Values()["deadline_admission"]; got != 1 {
		t.Errorf("deadline_admission shed count %d, want 1", got)
	}
}

// TestDeadlineDequeueCull checks a job whose deadline became unmeetable
// while it waited in the queue is shed at dequeue instead of burning a
// worker, and finishes in the terminal "shed" state.
func TestDeadlineDequeueCull(t *testing.T) {
	run, release := blockingRunner()
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, run)

	// Occupy the only worker, then queue a job with a short deadline.
	blocker, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		v, _ := s.Get(blocker.ID)
		return v.State == StateRunning
	})
	doomed, err := s.Submit(ScreenRequest{Seed: 2, DeadlineSeconds: 1})
	if err != nil {
		t.Fatalf("short-deadline job rejected at admission: %v", err)
	}
	// While it waits, the run-time estimate grows past its deadline.
	s.ctrl.ObserveRun(30 * time.Second)
	release()

	waitFor(t, func() bool {
		v, _ := s.Get(doomed.ID)
		return v.State.Terminal()
	})
	v, _ := s.Get(doomed.ID)
	if v.State != StateShed {
		t.Fatalf("doomed job finished as %s (%s), want shed", v.State, v.Error)
	}
	if got := s.metrics.shed.Values()["deadline_dequeue"]; got != 1 {
		t.Errorf("deadline_dequeue shed count %d, want 1", got)
	}
}

// TestBreakerOpensAndRecovers drives the device-health circuit with a
// stub that loses every device: consecutive machine-job failures open it,
// open rejects machine jobs (host jobs still pass), the cooldown admits a
// single probe, and a successful probe closes the circuit again.
func TestBreakerOpensAndRecovers(t *testing.T) {
	var fail atomic.Bool
	fail.Store(true)
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		if req.Machine != "" && fail.Load() {
			return nil, fmt.Errorf("resplit exhausted: %w", sched.ErrAllDevicesLost)
		}
		return stubResult(), nil
	}
	clock := struct {
		mu  sync.Mutex
		now time.Time
	}{now: time.Unix(1_700_000_000, 0)}
	tick := func() time.Time {
		clock.mu.Lock()
		defer clock.mu.Unlock()
		// Advance a little on every read so EWMAs see non-zero durations.
		clock.now = clock.now.Add(time.Millisecond)
		return clock.now
	}
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 8, MaxAttempts: 1,
		Clock:     tick,
		Admission: admission.Config{BreakerThreshold: 2, BreakerCooldown: time.Minute},
	}, run)

	machineReq := func(seed uint64) ScreenRequest {
		return ScreenRequest{Seed: seed, Machine: "Hertz", Mode: "heterogeneous", Modeled: true}
	}
	for i := uint64(1); i <= 2; i++ {
		v, err := s.Submit(machineReq(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitFor(t, func() bool {
			got, _ := s.Get(v.ID)
			return got.State.Terminal()
		})
	}
	if st := s.ctrl.Breaker.State(); st != admission.BreakerOpen {
		t.Fatalf("breaker %s after %d device-loss failures, want open", st, 2)
	}

	// Open circuit: machine jobs are rejected 503-style, host jobs pass.
	_, err := s.Submit(machineReq(3))
	if !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("got %v, want ErrBreakerOpen", err)
	}
	var se *ShedError
	if !errors.As(err, &se) || se.Reason != "breaker_open" || se.RetryAfter <= 0 {
		t.Fatalf("breaker shed error %+v", err)
	}
	if _, err := s.Submit(ScreenRequest{Seed: 4}); err != nil {
		t.Fatalf("host job rejected while breaker open: %v", err)
	}
	if st := s.Stats(); st.Breaker != "open" {
		t.Errorf("stats breaker %q, want open", st.Breaker)
	}

	// After the cooldown the circuit half-opens; the healed probe closes it.
	clock.mu.Lock()
	clock.now = clock.now.Add(2 * time.Minute)
	clock.mu.Unlock()
	fail.Store(false)
	probe, err := s.Submit(machineReq(5))
	if err != nil {
		t.Fatalf("probe rejected after cooldown: %v", err)
	}
	waitFor(t, func() bool {
		got, _ := s.Get(probe.ID)
		return got.State.Terminal()
	})
	if st := s.ctrl.Breaker.State(); st != admission.BreakerClosed {
		t.Fatalf("breaker %s after successful probe, want closed", st)
	}
	if v, err := s.Submit(machineReq(6)); err != nil {
		t.Fatalf("machine job rejected after recovery: %v", err)
	} else {
		waitFor(t, func() bool {
			got, _ := s.Get(v.ID)
			return got.State == StateDone
		})
	}
}

// TestDegradationRecordedOnView checks a job started under queue pressure
// runs at reduced effort and that the reduction — factor and effective
// scale — is recorded on its view rather than applied silently.
func TestDegradationRecordedOnView(t *testing.T) {
	var gotScale atomic.Value
	run, release := blockingRunner()
	wrapped := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		gotScale.Store(req.Scale)
		return run(ctx, id, req)
	}
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 4,
		Admission: admission.Config{DegradeAt: 0.5, DegradeFactor: 0.5},
	}, wrapped)

	blocker, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		v, _ := s.Get(blocker.ID)
		return v.State == StateRunning
	})
	var queued []JobView
	for i := uint64(2); i <= 4; i++ {
		v, err := s.Submit(ScreenRequest{Seed: i})
		if err != nil {
			t.Fatal(err)
		}
		queued = append(queued, v)
	}
	release()
	waitFor(t, func() bool {
		v, _ := s.Get(queued[0].ID)
		return v.State.Terminal()
	})

	// The first queued job popped with 2 of 4 slots still full: fill 0.5
	// crosses DegradeAt, so it ran at half scale and says so.
	v, _ := s.Get(queued[0].ID)
	if !v.Degraded || v.EffortFactor != 0.5 {
		t.Fatalf("view %+v: want degraded at factor 0.5", v)
	}
	want := v.Request.Scale * 0.5
	if v.EffectiveScale != want {
		t.Errorf("effective scale %g, want %g", v.EffectiveScale, want)
	}
	if sc, _ := gotScale.Load().(float64); sc != want && sc != v.Request.Scale {
		t.Errorf("runner saw scale %g, want %g (degraded) or %g (blocker)", sc, want, v.Request.Scale)
	}
	if s.metrics.shed.Values()["queue_full"] != 0 {
		t.Error("degradation test unexpectedly hit queue_full")
	}
}

// TestRetryBackoffRespectsDeadline checks the retry loop fails a job
// immediately when the computed backoff would sleep past its deadline,
// instead of sleeping and then failing anyway.
func TestRetryBackoffRespectsDeadline(t *testing.T) {
	attempts := atomic.Int64{}
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		attempts.Add(1)
		return nil, transientTestErr{}
	}
	s := newTestService(t, Config{
		Workers: 1, QueueDepth: 4, MaxAttempts: 5,
		RetryBaseDelay: 30 * time.Second, // any backoff overshoots the deadline
	}, run)

	v, err := s.Submit(ScreenRequest{Seed: 1, DeadlineSeconds: 5})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	waitFor(t, func() bool {
		got, _ := s.Get(v.ID)
		return got.State.Terminal()
	})
	got, _ := s.Get(v.ID)
	if got.State != StateFailed {
		t.Fatalf("job finished as %s, want failed", got.State)
	}
	if n := attempts.Load(); n != 1 {
		t.Errorf("runner ran %d times, want 1 (backoff skipped)", n)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Errorf("job took %v; the backoff was not skipped", elapsed)
	}
	if s.metrics.shed.Values()["deadline_backoff"] != 1 {
		t.Error("deadline_backoff not counted")
	}
}

// transientTestErr is retryable by the pool's classification.
type transientTestErr struct{}

func (transientTestErr) Error() string   { return "synthetic transient failure" }
func (transientTestErr) Transient() bool { return true }

// TestCancelSurvivesReplay kills the process between a running job's
// journaled cancel and its terminal record, then reboots over the data
// dir: replay must honour the cancel intent and finish the job cancelled
// instead of resurrecting it.
func TestCancelSurvivesReplay(t *testing.T) {
	dir := t.TempDir()
	gate := make(chan struct{})
	run := func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		<-ctx.Done() // wait for the cancel signal...
		<-gate       // ...then hold the terminal transition until "killed"
		return nil, ctx.Err()
	}
	s, err := New(Config{Workers: 1, QueueDepth: 4, DataDir: dir, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	s.run = run

	v, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := s.Get(v.ID)
		return got.State == StateRunning
	})
	if _, err := s.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	dead := make(chan struct{})
	go func() { s.crashForTest(); close(dead) }()
	waitFor(t, func() bool { return s.Stats().Draining })
	close(gate)
	<-dead

	s2, err := New(Config{Workers: 1, QueueDepth: 4, DataDir: dir, MaxAttempts: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	})
	got, err := s2.Get(v.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != StateCancelled {
		t.Fatalf("replayed job state %s, want cancelled (cancel intent lost)", got.State)
	}
	if s2.Recovery().RecoveredJobs != 0 {
		t.Errorf("cancelled job was re-enqueued: %+v", s2.Recovery())
	}
}

// TestCancelAliasRoute checks DELETE /jobs/{id} cancels like the
// canonical /v1/screens route.
func TestCancelAliasRoute(t *testing.T) {
	run, release := blockingRunner()
	defer release()
	s := newTestService(t, Config{Workers: 1, QueueDepth: 4}, run)
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	v, err := s.Submit(ScreenRequest{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		got, _ := s.Get(v.ID)
		return got.State == StateRunning
	})
	req, _ := http.NewRequest("DELETE", srv.URL+"/jobs/"+v.ID, nil)
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("DELETE /jobs/{id} status %d, want 202", resp.StatusCode)
	}
	waitFor(t, func() bool {
		got, _ := s.Get(v.ID)
		return got.State == StateCancelled
	})
}
