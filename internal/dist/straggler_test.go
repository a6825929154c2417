package dist

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/service"
)

// Straggler-mitigation tests. The stalled node in each scenario is a stub
// HTTP worker, not a real service: it accepts shard submissions, reports
// zero progress on every poll, and records cancels — a worker that is
// perfectly reachable and perfectly useless, which is exactly the fault
// the steal/hedge/quarantine machinery exists to route around. (A dead
// worker is the re-split machinery's job and is tested in dist_test.go.)

// stalledWorker is that stub. It holds every submitted shard at
// completed=0 forever, so its ETA is +Inf from the coordinator's first
// rate observation onward.
type stalledWorker struct {
	srv *httptest.Server

	mu      sync.Mutex
	submits int
	total   int
	cancels []string
}

func startStalledWorker(t *testing.T) *stalledWorker {
	t.Helper()
	sw := &stalledWorker{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", func(w http.ResponseWriter, r *http.Request) {
		var req service.ScreenRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sw.mu.Lock()
		sw.submits++
		sw.total = len(req.Ligands)
		sw.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, service.JobView{ID: "stall-1", State: service.StateRunning})
	})
	mux.HandleFunc("GET /v1/screens/{id}/partial", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		total := sw.total
		sw.mu.Unlock()
		service.WriteJSON(w, http.StatusOK, service.PartialView{
			ID: r.PathValue("id"), State: service.StateRunning, Completed: 0, Total: total,
		})
	})
	mux.HandleFunc("DELETE /v1/screens/{id}", func(w http.ResponseWriter, r *http.Request) {
		sw.mu.Lock()
		sw.cancels = append(sw.cancels, r.PathValue("id"))
		sw.mu.Unlock()
		service.WriteJSON(w, http.StatusAccepted, map[string]string{})
	})
	sw.srv = httptest.NewServer(mux)
	t.Cleanup(sw.srv.Close)
	return sw
}

func (sw *stalledWorker) cancelCount() int {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	return len(sw.cancels)
}

// expositionCounter reads one Metrics counter through the exposition text, the
// same surface operators scrape — so the test also pins the metric names
// the runbooks grep for.
func expositionCounter(t *testing.T, c *Coordinator, name string) int {
	t.Helper()
	var buf strings.Builder
	c.metrics.WriteTo(&buf, c.Stats())
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == name {
			n, err := strconv.Atoi(f[1])
			if err != nil {
				t.Fatalf("unparseable %s value %q", name, f[1])
			}
			return n
		}
	}
	t.Fatalf("metric %s not in exposition", name)
	return 0
}

func workerView(t *testing.T, c *Coordinator, url string) WorkerView {
	t.Helper()
	for _, w := range c.Workers() {
		if w.URL == url {
			return w
		}
	}
	t.Fatalf("worker %s not in membership", url)
	return WorkerView{}
}

// TestStealFromStalledWorker: two workers split a screen; one stalls at
// zero progress while staying perfectly reachable. Once the healthy
// worker finishes its own shard (idle + a reference duration), the
// coordinator must steal the stalled remainder, quarantine the victim,
// best-effort cancel its worker-side job — and still merge the exact
// single-node ranking with every ligand counted once.
func TestStealFromStalledWorker(t *testing.T) {
	stall := startStalledWorker(t)
	healthy := startWorker(t)
	c := startCoordinator(t, Config{HeartbeatTimeout: 400 * time.Millisecond})
	defer beat(t, c, healthy.URL)()
	defer beat(t, c, stall.srv.URL)()

	v, _, err := c.Submit(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s: %s", final.State, final.Error)
	}

	if got := expositionCounter(t, c, "metascreen_dist_shards_stolen_total"); got < 1 {
		t.Error("no shard was stolen from the stalled worker")
	}
	// Every ligand merged exactly once: the merged-set dedup means the
	// counter equals the library size no matter how the steal raced.
	if got := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); got != distRequest.Library {
		t.Errorf("ligands_merged_total = %d, want exactly %d", got, distRequest.Library)
	}
	stolen := false
	for _, sh := range final.Shards {
		if sh.Stolen {
			stolen = true
		}
	}
	if !stolen {
		t.Error("no shard in the job view is marked stolen")
	}

	want := singleNodeResult(t, distRequest)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("post-steal ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("simulated_seconds %v != single-node %v",
			final.Result.SimulatedSeconds, want.SimulatedSeconds)
	}

	// The victim was quarantined on the spot and shows up in the
	// per-worker diagnostics.
	wv := workerView(t, c, stall.srv.URL)
	if !wv.Quarantined {
		t.Error("stalled worker not quarantined after the steal")
	}
	if wv.StolenFrom < 1 {
		t.Error("stolen_from not counted on the victim")
	}
	if got := expositionCounter(t, c, "metascreen_dist_workers_quarantined"); got < 1 {
		t.Error("workers_quarantined gauge is zero with a quarantined worker alive")
	}

	// The victim's worker-side job gets a best-effort cancel (async).
	deadline := time.Now().Add(5 * time.Second)
	for stall.cancelCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("stalled worker never received a cancel for its fenced shard")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestHedgeTailRace: with stealing disabled and HedgeTail=1, the last
// unfinished shard — held by the stalled worker — is twinned onto the
// idle healthy worker. The twin wins the race, the loser is fenced and
// cancelled, and the ranking still matches the single-node run.
func TestHedgeTailRace(t *testing.T) {
	stall := startStalledWorker(t)
	healthy := startWorker(t)
	c := startCoordinator(t, Config{
		HeartbeatTimeout: 400 * time.Millisecond,
		StealThreshold:   -1, // isolate the hedge path
		HedgeTail:        1,
	})
	defer beat(t, c, healthy.URL)()
	defer beat(t, c, stall.srv.URL)()

	v, _, err := c.Submit(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s: %s", final.State, final.Error)
	}

	if got := expositionCounter(t, c, "metascreen_dist_hedges_issued_total"); got < 1 {
		t.Error("tail shard was never hedged")
	}
	if got := expositionCounter(t, c, "metascreen_dist_hedge_wins_total"); got < 1 {
		t.Error("the healthy twin never won the hedge race")
	}
	if got := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); got != distRequest.Library {
		t.Errorf("ligands_merged_total = %d, want exactly %d", got, distRequest.Library)
	}
	hedged := false
	for _, sh := range final.Shards {
		if sh.HedgeOf != "" {
			hedged = true
		}
	}
	if !hedged {
		t.Error("no shard in the job view carries a hedge_of link")
	}

	want := singleNodeResult(t, distRequest)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("post-hedge ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}

	// The losing leg's worker-side job is cancelled, best effort.
	deadline := time.Now().Add(5 * time.Second)
	for stall.cancelCount() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("losing hedge leg never received a cancel")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestStealNoopOnSingleWorker: the regression guard from the issue — a
// one-worker cluster has no reference ETA and no idle thief, so the
// straggler pass must never fence the only shard making (or even not
// making) progress.
func TestStealNoopOnSingleWorker(t *testing.T) {
	stall := startStalledWorker(t)
	c := startCoordinator(t, Config{HeartbeatTimeout: 200 * time.Millisecond})
	defer beat(t, c, stall.srv.URL)()

	v, _, err := c.Submit(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	// Outwait the grace period by a wide margin: many straggler passes run
	// against the stalled shard and all of them must decline.
	waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State == service.StateRunning })
	time.Sleep(time.Second)

	if got := expositionCounter(t, c, "metascreen_dist_shards_stolen_total"); got != 0 {
		t.Errorf("shards_stolen_total = %d on a single-worker cluster, want 0", got)
	}
	if got := expositionCounter(t, c, "metascreen_dist_hedges_issued_total"); got != 0 {
		t.Errorf("hedges_issued_total = %d with no idle workers, want 0", got)
	}
	if stall.cancelCount() != 0 {
		t.Error("only worker's shard was cancelled out from under it")
	}
	if got, _ := c.Get(v.ID); got.State != service.StateRunning {
		t.Fatalf("job left running state: %s (%s)", got.State, got.Error)
	}
	if _, err := c.Cancel(v.ID); err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
}

// TestQuarantineAssessAndRecover drives the rate-based brownout directly:
// a worker persistently observed far below the fleet median is demoted
// after quarantineStreak assessments — not one — and recovers on its own
// once its rate clears the exit bar.
func TestQuarantineAssessAndRecover(t *testing.T) {
	c := startCoordinator(t, Config{}) // PollInterval 20ms, QuarantineFactor 4
	fast, slow := "http://fast:1", "http://slow:2"
	if _, err := c.Register(fast); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Register(slow); err != nil {
		t.Fatal(err)
	}

	observe := func(url string, rate float64) {
		c.mu.Lock()
		c.workers[url].rate.Observe(rate)
		c.mu.Unlock()
	}
	assess := func() {
		// Keep both workers heartbeating and outwait the assessment rate
		// limit (one pass per PollInterval).
		time.Sleep(25 * time.Millisecond)
		c.Register(fast)
		c.Register(slow)
		c.reapWorkers()
	}

	// One bad sample must not quarantine: hysteresis needs a streak.
	observe(fast, 10)
	observe(slow, 0.1)
	assess()
	if workerView(t, c, slow).Quarantined {
		t.Fatal("one slow sample quarantined the worker — no hysteresis")
	}
	for i := 0; i < quarantineStreak; i++ {
		observe(fast, 10)
		observe(slow, 0.1)
		assess()
	}
	if !workerView(t, c, slow).Quarantined {
		t.Fatal("persistently slow worker never quarantined")
	}
	if workerView(t, c, fast).Quarantined {
		t.Fatal("healthy worker quarantined alongside the straggler")
	}
	if got := expositionCounter(t, c, "metascreen_dist_quarantines_total"); got != 1 {
		t.Errorf("quarantines_total = %d, want 1", got)
	}

	// Recovery: rate climbs back above twice the entry bar; the EWMA takes
	// a few samples to catch up, so poll rather than count.
	deadline := time.Now().Add(5 * time.Second)
	for workerView(t, c, slow).Quarantined {
		if time.Now().After(deadline) {
			t.Fatal("recovered worker never left quarantine")
		}
		observe(fast, 10)
		observe(slow, 100)
		assess()
	}
	if got := expositionCounter(t, c, "metascreen_dist_workers_quarantined"); got != 0 {
		t.Errorf("workers_quarantined gauge = %d after recovery, want 0", got)
	}
}

// TestSnapshotExposesWorkerRates: /debug/snapshot bundles stats, the
// per-worker rate/quarantine diagnostics, and the job list in one GET —
// what an operator (or the e2e straggler drill) reads to see who is slow.
func TestSnapshotExposesWorkerRates(t *testing.T) {
	c := startCoordinator(t, Config{})
	if _, err := c.Register("http://w:1"); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.workers["http://w:1"].rate.Observe(7.5)
	c.workers["http://w:1"].selfRate = 8.25
	c.mu.Unlock()

	api := httptest.NewServer(c.Handler())
	defer api.Close()
	resp, err := api.Client().Get(api.URL + "/debug/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/snapshot: status %d", resp.StatusCode)
	}
	var snap DebugSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Stats.Workers != 1 {
		t.Errorf("snapshot stats report %d workers, want 1", snap.Stats.Workers)
	}
	if len(snap.Workers) != 1 || snap.Workers[0].ThroughputLPS != 7.5 || snap.Workers[0].SelfRateLPS != 8.25 {
		t.Errorf("snapshot workers = %+v, want one with rate 7.5 / self-rate 8.25", snap.Workers)
	}
}
