package dist

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/service"
)

// Tests for the /partial cursor the coordinator streams shards through,
// and for the coordinator's "acked means journaled" admission rule.

// pagedProxy fronts a worker and shrinks every /partial page to pageSize
// records, counting the entries it relays.
type pagedProxy struct {
	srv      *httptest.Server
	pageSize int

	mu      sync.Mutex
	entries int
}

func startPagedProxy(t *testing.T, worker *httptest.Server, pageSize int) *pagedProxy {
	t.Helper()
	target, err := url.Parse(worker.URL)
	if err != nil {
		t.Fatal(err)
	}
	p := &pagedProxy{pageSize: pageSize}
	p.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		q := r.URL.Query()
		partial := strings.HasSuffix(r.URL.Path, "/partial")
		if partial {
			q.Set("limit", strconv.Itoa(p.pageSize))
		}
		out, err := http.NewRequestWithContext(r.Context(), r.Method,
			target.Scheme+"://"+target.Host+r.URL.Path+"?"+q.Encode(), r.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		out.Header = r.Header.Clone()
		resp, err := http.DefaultTransport.RoundTrip(out)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if partial {
			var pv service.PartialView
			if json.Unmarshal(body, &pv) == nil {
				p.mu.Lock()
				p.entries += len(pv.Entries)
				p.mu.Unlock()
			}
		}
		for k, v := range resp.Header {
			w.Header()[k] = v
		}
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
	}))
	t.Cleanup(p.srv.Close)
	return p
}

func (p *pagedProxy) relayed() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.entries
}

// TestCursorStreamsShardLargerThanPage: a shard four times the worker's
// /partial page streams completely — the coordinator follows next until
// the cursor reaches the end instead of judging the shard on one page —
// every ligand merges exactly once, and no record crosses the wire twice.
func TestCursorStreamsShardLargerThanPage(t *testing.T) {
	proxy := startPagedProxy(t, startWorker(t), 3)
	// A slow poll lets the worker finish the whole shard first: the
	// first poll then meets a done job with four pages still unread.
	c := startCoordinator(t, Config{PollInterval: time.Second})
	defer beat(t, c, proxy.srv.URL)()

	v, _, err := c.Submit(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	final := waitJob(t, c, v.ID, 90*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s: %s", final.State, final.Error)
	}
	want := singleNodeResult(t, distRequest)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("paged merge differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds || final.Result.Evaluations != want.Evaluations {
		t.Errorf("totals (%v, %d) != single-node (%v, %d)", final.Result.SimulatedSeconds,
			final.Result.Evaluations, want.SimulatedSeconds, want.Evaluations)
	}
	if merged := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); merged != distRequest.Library {
		t.Errorf("ligands_merged_total = %d, want exactly %d", merged, distRequest.Library)
	}
	if got := proxy.relayed(); got != distRequest.Library {
		t.Errorf("worker sent %d partial entries for %d ligands; the cursor should send each once", got, distRequest.Library)
	}
}

// scriptedWorker serves one shard's /partial cursor from a record list
// the test edits between polls, under an incarnation token the test can
// change — a worker restart, as the coordinator sees it.
type scriptedWorker struct {
	srv *httptest.Server

	mu      sync.Mutex
	token   string
	records []service.PartialEntry
	state   service.JobState
	total   int
}

func startScriptedWorker(t *testing.T) *scriptedWorker {
	t.Helper()
	sw := &scriptedWorker{token: "boot-1", state: service.StateRunning}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/screens", func(w http.ResponseWriter, r *http.Request) {
		var req service.ScreenRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		sw.mu.Lock()
		sw.total = len(req.Ligands)
		sw.mu.Unlock()
		writeJSON(w, http.StatusAccepted, service.JobView{ID: "job-000001", State: service.StateRunning})
	})
	mux.HandleFunc("GET /v1/screens/{id}/partial", func(w http.ResponseWriter, r *http.Request) {
		after, _ := strconv.Atoi(r.URL.Query().Get("after"))
		sw.mu.Lock()
		defer sw.mu.Unlock()
		pv := service.PartialView{
			ID: r.PathValue("id"), State: sw.state, Total: sw.total,
			Completed: len(sw.records), Incarnation: sw.token,
		}
		if after > len(sw.records) {
			after = len(sw.records)
		}
		pv.Entries = append(pv.Entries, sw.records[after:]...)
		pv.Next = len(sw.records)
		writeJSON(w, http.StatusOK, pv)
	})
	sw.srv = httptest.NewServer(mux)
	t.Cleanup(sw.srv.Close)
	return sw
}

func (sw *scriptedWorker) set(token string, state service.JobState, records []service.PartialEntry) {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	sw.token, sw.state, sw.records = token, state, records
}

// TestWorkerRestartLostRecordsMergesOnce: a worker under -fsync interval
// restarts after the coordinator already merged records its journal had
// not synced. The new incarnation serves fewer records, then re-docks the
// lost ligands in another order. The coordinator must notice the new
// token, restart its cursor from 0 — a cursor past the restarted
// worker's end would skip the re-docked ligands forever — and still merge
// every ligand exactly once into the single-node ranking.
func TestWorkerRestartLostRecordsMergesOnce(t *testing.T) {
	// Per-ligand entries, in completion order, from a real node.
	ref, err := service.New(service.Config{Workers: 1, ScreenWorkers: 1, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Shutdown(context.Background())
	rv, err := ref.Submit(distRequest)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(60 * time.Second)
	for rv.State != service.StateDone {
		if time.Now().After(deadline) {
			t.Fatalf("reference job stuck in %s", rv.State)
		}
		time.Sleep(10 * time.Millisecond)
		if rv, err = ref.Get(rv.ID); err != nil {
			t.Fatal(err)
		}
	}
	all, err := ref.PartialAfter(rv.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	recs := all.Entries
	n := len(recs)

	sw := startScriptedWorker(t)
	c := startCoordinator(t, Config{})
	defer beat(t, c, sw.srv.URL)()
	sw.set("boot-1", service.StateRunning, recs[:8])
	v, _, err := c.Submit(distRequest, "")
	if err != nil {
		t.Fatal(err)
	}
	waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.Completed == 8 })

	// Crash and restart: records 5..7 never reached the disk.
	sw.set("boot-2", service.StateRunning, append([]service.PartialEntry(nil), recs[:5]...))
	time.Sleep(5 * c.cfg.PollInterval)
	if got, _ := c.Get(v.ID); got.State.Terminal() || got.Completed != 8 {
		t.Fatalf("after the restart the job is %s with %d merged, want running with 8", got.State, got.Completed)
	}

	// The restarted worker re-docks the lost ligands and the rest, newest
	// first, and finishes.
	redone := append([]service.PartialEntry(nil), recs[:5]...)
	for i := n - 1; i >= 5; i-- {
		redone = append(redone, recs[i])
	}
	sw.set("boot-2", service.StateDone, redone)

	final := waitJob(t, c, v.ID, 30*time.Second, func(v JobView) bool { return v.State.Terminal() })
	if final.State != service.StateDone {
		t.Fatalf("screen ended %s: %s", final.State, final.Error)
	}
	want := singleNodeResult(t, distRequest)
	if got, exp := rankingJSON(t, final.Result.Ranking), rankingJSON(t, want.Ranking); got != exp {
		t.Fatalf("merged ranking differs from single-node:\n got %s\nwant %s", got, exp)
	}
	if final.Result.SimulatedSeconds != want.SimulatedSeconds || final.Result.Evaluations != want.Evaluations {
		t.Errorf("totals (%v, %d) != single-node (%v, %d)", final.Result.SimulatedSeconds,
			final.Result.Evaluations, want.SimulatedSeconds, want.Evaluations)
	}
	if merged := expositionCounter(t, c, "metascreen_dist_ligands_merged_total"); merged != n {
		t.Errorf("ligands_merged_total = %d, want exactly %d", merged, n)
	}
}

// TestSubmitRefusedWhenJournalFails: the coordinator acknowledges a
// screen only once its admission is in the journal. When the journal's
// disk fills, Submit answers like a node — HTTP 507 with Retry-After —
// and leaves no trace of the refused job; once space frees, the next
// submission is journaled again, and a restart finds exactly the
// acknowledged jobs.
func TestSubmitRefusedWhenJournalFails(t *testing.T) {
	dir := t.TempDir()
	plan, err := fsim.ParsePlan("*:enospc@1500")
	if err != nil {
		t.Fatal(err)
	}
	disk := fsim.New(plan, fsim.Config{Seed: 5})
	c := startCoordinator(t, Config{DataDir: dir, FS: disk})
	srv := httptest.NewServer(c.Handler())
	defer srv.Close()

	// No worker is registered, so each admitted job waits queued and the
	// only journal traffic is the admissions themselves.
	body, _ := json.Marshal(distRequest)
	var acked []string
	for len(acked) < 50 {
		resp, err := http.Post(srv.URL+"/v1/screens", "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if resp.StatusCode == http.StatusAccepted {
			acked = append(acked, v.ID)
			continue
		}
		if resp.StatusCode != http.StatusInsufficientStorage {
			t.Fatalf("submit with a full journal disk: HTTP %d, want 507", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("507 without Retry-After")
		}
		break
	}
	if len(acked) == 0 || len(acked) == 50 {
		t.Fatalf("%d submissions acknowledged; the disk should fill after a few", len(acked))
	}
	if jobs := c.List(); len(jobs) != len(acked) {
		t.Fatalf("%d jobs listed after %d acknowledgements; the refused one must leave no trace", len(jobs), len(acked))
	}

	disk.FreeSpace()
	v, _, err := c.Submit(distRequest, "after-free")
	if err != nil {
		t.Fatalf("submit after freeing space: %v", err)
	}
	if want := fmt.Sprintf("dscreen-%06d", len(acked)+1); v.ID != want {
		t.Errorf("job after the refusal got ID %s, want %s: a refused job must not consume an ID", v.ID, want)
	}
	acked = append(acked, v.ID)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := c.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	c2 := startCoordinator(t, Config{DataDir: dir})
	for _, id := range acked {
		if _, err := c2.Get(id); err != nil {
			t.Errorf("acknowledged job %s lost across restart: %v", id, err)
		}
	}
	if jobs := c2.List(); len(jobs) != len(acked) {
		t.Errorf("restart found %d jobs, want the %d acknowledged ones", len(jobs), len(acked))
	}
}
