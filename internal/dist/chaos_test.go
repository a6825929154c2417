package dist

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/netsim"
	"github.com/metascreen/metascreen/internal/service"
)

// Chaos tests: the coordinator under injected network faults. The netsim
// transport sits between the coordinator's client and real worker
// services, so partitions, blackholes and revivals exercise the same
// retry, death-threshold and epoch-fencing code paths production hits —
// deterministically, from a seed and a plan.

func mustPlan(t *testing.T, spec string) netsim.Plan {
	t.Helper()
	p, err := netsim.ParsePlan(spec)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// hostOf strips the scheme from an httptest URL, yielding the host:port
// a netsim clause targets.
func hostOf(t *testing.T, url string) string {
	t.Helper()
	host := strings.TrimPrefix(url, "http://")
	if host == url {
		t.Fatalf("unexpected worker URL %q", url)
	}
	return host
}

// TestChaosPartitionHealByteIdentical is the acceptance drill: partition
// one of two workers mid-screen, let the coordinator declare it dead and
// re-split, heal the partition so heartbeats revive it under a fresh
// epoch, and require the merged ranking to be byte-identical to a
// single-node run — with every ligand merged exactly once.
func TestChaosPartitionHealByteIdentical(t *testing.T) {
	victim, healthy := startWorker(t), startWorker(t)
	// Plan time is driven manually so the partition starts exactly when
	// the screen is observed mid-flight, not on a wall-clock guess.
	var clock atomic.Int64
	plan := mustPlan(t, hostOf(t, victim.URL)+":partition@500ms+1s,*:latency@2ms±1ms")
	tr := netsim.New(plan, netsim.Config{
		Seed:  7,
		Clock: func() time.Duration { return time.Duration(clock.Load()) },
	})
	c := startCoordinator(t, Config{
		Transport:       tr,
		RequestTimeout:  500 * time.Millisecond,
		RequestAttempts: 2,
		RetryBaseDelay:  5 * time.Millisecond,
	})
	defer beat(t, c, victim.URL)()
	defer beat(t, c, healthy.URL)()

	req := distRequest
	req.Library = 24
	req.Scale = 0.3
	v, _, err := c.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 60*time.Second, func(v JobView) bool {
		return v.Completed >= 1 && v.Completed < v.Total
	})

	clock.Store(int64(600 * time.Millisecond)) // inside the partition window
	deadline := time.Now().Add(30 * time.Second)
	for c.metrics.workerDeaths.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned worker never declared dead")
		}
		time.Sleep(5 * time.Millisecond)
	}
	clock.Store(int64(2 * time.Second)) // healed

	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s under partition+heal: %s", final.State, final.Error)
	}
	if final.Resplits < 1 {
		t.Error("partition produced no re-split")
	}

	want := singleNodeResult(t, req)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("post-chaos ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != single-node %v",
			final.Result.SimulatedSeconds, want.SimulatedSeconds)
	}
	// The double-merge check: 24 target ligands, exactly 24 merges ever.
	if merged := c.metrics.merged.Value(); merged != int64(req.Library) {
		t.Errorf("%d ligand merges for a %d-ligand screen (double merge?)", merged, req.Library)
	}

	// The healed victim rejoins: both workers alive again.
	deadline = time.Now().Add(10 * time.Second)
	for {
		alive := 0
		for _, w := range c.Workers() {
			if w.Alive {
				alive++
			}
		}
		if alive == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers alive after heal, want 2", alive)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestZombieEpochFencing: a worker declared dead and instantly revived
// (the zombie window at its narrowest) must have its old shard fenced —
// re-split under the new epoch, the stale worker-side job cancelled — and
// still converge to the single-node ranking.
func TestZombieEpochFencing(t *testing.T) {
	w := startWorker(t)
	c := startCoordinator(t, Config{})
	defer beat(t, c, w.URL)()

	req := distRequest
	req.Library = 24
	req.Scale = 0.3
	v, _, err := c.Submit(req, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 60*time.Second, func(v JobView) bool {
		return v.Completed >= 1 && v.Completed < v.Total
	})

	// Kill and revive atomically, exactly as Register's dead→alive
	// transition would: the worker is alive the whole time as far as any
	// supervisor step can observe, but under a newer epoch — the pure
	// fencing case, with no dead-worker re-split mixed in.
	c.mu.Lock()
	c.markWorkerDeadLocked(w.URL, "zombie drill")
	wk := c.workers[w.URL]
	wk.alive = true
	c.nextEpoch++
	wk.epoch = c.nextEpoch
	c.mu.Unlock()

	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s after zombie revival: %s", final.State, final.Error)
	}
	if fenced := c.metrics.shardsFenced.Value(); fenced < 1 {
		t.Error("revived worker's stale shard was not fenced")
	}
	if final.Resplits < 1 {
		t.Error("fencing produced no re-split")
	}
	ws := c.Workers()
	if len(ws) != 1 || ws[0].Epoch != 2 {
		t.Fatalf("worker epoch after revival: %+v, want epoch 2", ws)
	}

	want := singleNodeResult(t, req)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("post-fence ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if merged := c.metrics.merged.Value(); merged != int64(req.Library) {
		t.Errorf("%d ligand merges for a %d-ligand screen (double merge?)", merged, req.Library)
	}
}

// TestStalePartialRejected drives the poll path directly: a partial
// fetched for a shard whose epoch no longer matches its worker is
// dropped, not merged; the same poll under the matching epoch merges.
func TestStalePartialRejected(t *testing.T) {
	w := startWorker(t)
	c := startCoordinator(t, Config{})
	if _, err := c.Register(w.URL); err != nil {
		t.Fatal(err)
	}

	req := distRequest.Normalized()
	view, err := c.cl.submit(context.Background(), w.URL, req, "stale-poll-test", 1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		jv, gerr := c.cl.get(context.Background(), w.URL, view.ID)
		if gerr == nil && jv.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker-side job stuck")
		}
		time.Sleep(10 * time.Millisecond)
	}

	j := newJob("stale-test-job", req, "", time.Now())
	sh := &shard{id: "s0", worker: w.URL, epoch: 99, ligands: j.names, remote: view.ID}
	if msg, fatal := c.poll(j, sh); fatal {
		t.Fatalf("stale poll reported fatal: %s", msg)
	}
	if len(j.merged) != 0 {
		t.Fatalf("stale partial merged %d ligands", len(j.merged))
	}
	if n := c.metrics.staleRejected.Value(); n != 1 {
		t.Fatalf("stale rejections counter %d, want 1", n)
	}

	sh.epoch = 1 // matches the worker's registration epoch
	if msg, fatal := c.poll(j, sh); fatal {
		t.Fatalf("valid poll reported fatal: %s", msg)
	}
	if len(j.merged) != len(j.names) {
		t.Fatalf("valid poll merged %d/%d ligands", len(j.merged), len(j.names))
	}
}

// TestBlackholeBoundedPoll: every request against a blackholed worker is
// bounded by the per-request timeout, so the death threshold fires within
// seconds instead of the supervisor wedging forever (the failure mode of
// a context-free client).
func TestBlackholeBoundedPoll(t *testing.T) {
	w := startWorker(t)
	tr := netsim.New(mustPlan(t, hostOf(t, w.URL)+":hang@0s"), netsim.Config{Seed: 1})
	c := startCoordinator(t, Config{
		Transport:       tr,
		RequestTimeout:  100 * time.Millisecond,
		RequestAttempts: 2,
		RetryBaseDelay:  5 * time.Millisecond,
		// No heartbeat loop: the worker registers once and then every
		// request to it blackholes, so death must come from the
		// consecutive-failure threshold alone.
		HeartbeatTimeout: time.Hour,
	})
	if _, err := c.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, _, err := c.Submit(distRequest, ""); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		ws := c.Workers()
		if len(ws) == 1 && !ws[0].Alive {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("blackholed worker never declared dead — polls are unbounded")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// 2 dispatch attempts × 100ms + backoff, twice, plus poll ticks: well
	// under a second of fault budget; 5s leaves generous CI headroom.
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("death threshold took %v against a blackholed worker", elapsed)
	}
}

// TestEpochSurvivesRestart: fencing epochs are journaled, so a restarted
// coordinator keeps counting upward — a zombie from before the crash can
// never collide with a fresh registration's epoch.
func TestEpochSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	w := startWorker(t)

	c1 := startCoordinator(t, Config{DataDir: dir})
	if _, err := c1.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	// One dead→alive cycle: epoch 2.
	c1.mu.Lock()
	c1.markWorkerDeadLocked(w.URL, "restart drill")
	c1.mu.Unlock()
	if _, err := c1.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	if ws := c1.Workers(); ws[0].Epoch != 2 {
		t.Fatalf("epoch before restart %d, want 2", ws[0].Epoch)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	if err := c1.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	cancel()

	c2 := startCoordinator(t, Config{DataDir: dir})
	if ws := c2.Workers(); len(ws) != 1 || ws[0].Epoch != 2 {
		t.Fatalf("replayed membership %+v, want the worker at epoch 2", ws)
	}
	// The next revival must advance past every journaled epoch.
	c2.mu.Lock()
	c2.markWorkerDeadLocked(w.URL, "restart drill")
	c2.mu.Unlock()
	if _, err := c2.Register(w.URL); err != nil {
		t.Fatal(err)
	}
	if ws := c2.Workers(); ws[0].Epoch != 3 {
		t.Fatalf("epoch after restart+revival %d, want 3", ws[0].Epoch)
	}
}
