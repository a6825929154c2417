package service

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/surface"
	"github.com/metascreen/metascreen/internal/wal"
)

// The crash-recovery contract, end to end: a service killed mid-screen
// and rebooted over the same data dir resumes the interrupted job from
// its journaled ligand records, re-docks only the unfinished ligands, and
// produces a final ranking byte-identical to an uninterrupted run.

// jsonBody marshals a request body.
func jsonBody(t *testing.T, v any) io.Reader {
	t.Helper()
	buf, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return bytes.NewReader(buf)
}

// decodeJSON decodes a response body.
func decodeJSON(t *testing.T, resp *http.Response, out any) {
	t.Helper()
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

// recoveryRequest is the screen used across these tests: small enough for
// test time, large enough to crash part-way through.
var recoveryRequest = ScreenRequest{
	Dataset: "2BSM", Library: 6, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7,
}

// durableConfig is the one-worker durable configuration the recovery
// tests run under (deterministic crash points need ScreenWorkers = 1).
func durableConfig(dir string) Config {
	return Config{Workers: 1, ScreenWorkers: 1, DataDir: dir, MaxAttempts: 1}
}

// journalEvents reads every event a data dir's journal holds, oldest
// first, straight from the segment files.
func journalEvents(t *testing.T, dir string) []jobEvent {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.wal"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(segs)
	var out []jobEvent
	for _, seg := range segs {
		data, err := os.ReadFile(seg)
		if err != nil {
			t.Fatal(err)
		}
		recs, _ := wal.ScanRecords(data)
		for _, rec := range recs {
			var ev jobEvent
			if err := json.Unmarshal(rec, &ev); err != nil {
				t.Fatal(err)
			}
			out = append(out, ev)
		}
	}
	return out
}

// referenceResult runs recoveryRequest through the library API — the
// ranking every (resumed or not) service run must reproduce exactly.
func referenceResult(t *testing.T) *core.ScreenResult {
	t.Helper()
	ds, err := core.DatasetByName(recoveryRequest.Dataset)
	if err != nil {
		t.Fatal(err)
	}
	algf := func() (metaheuristic.Algorithm, error) {
		return metaheuristic.NewPaper(recoveryRequest.Metaheuristic, recoveryRequest.Scale)
	}
	res, err := core.ScreenCtx(context.Background(), ds.Receptor,
		core.SyntheticLibrary(recoveryRequest.Library),
		surface.Options{MaxSpots: recoveryRequest.Spots}, forcefield.Options{},
		algf, core.HostBackendFactory(core.HostConfig{Real: true}), recoveryRequest.Seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// assertMatchesReference compares a service result against the library
// run field by field.
func assertMatchesReference(t *testing.T, got *ResultView, want *core.ScreenResult) {
	t.Helper()
	if got == nil {
		t.Fatal("job has no result")
	}
	if len(got.Ranking) != len(want.Ranking) {
		t.Fatalf("ranking has %d entries, want %d", len(got.Ranking), len(want.Ranking))
	}
	for i, w := range want.Ranking {
		g := got.Ranking[i]
		if g.Ligand != w.Ligand.Name || g.Score != w.Result.Best.Score || g.Spot != w.Result.Best.Spot {
			t.Errorf("rank %d: got %s %v spot %d, want %s %v spot %d", i+1,
				g.Ligand, g.Score, g.Spot, w.Ligand.Name, w.Result.Best.Score, w.Result.Best.Spot)
		}
	}
	if got.Evaluations != want.Evaluations || got.SimulatedSeconds != want.SimulatedSeconds {
		t.Errorf("work totals (%d, %g) differ from reference (%d, %g)",
			got.Evaluations, got.SimulatedSeconds, want.Evaluations, want.SimulatedSeconds)
	}
}

// crashAfterCheckpoints runs recoveryRequest on a fresh durable service
// and simulates process death once exactly n ligand records are
// journaled, returning the interrupted job's ID.
func crashAfterCheckpoints(t *testing.T, dir string, n int) string {
	t.Helper()
	s, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	armed := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	// The hook holds the screen at the n-th record so the "kill"
	// always lands at the same mid-screen point.
	s.recordHook = func(id string, newly int) {
		if newly == n {
			once.Do(func() { close(armed) })
			<-release
		}
	}
	v, err := s.Submit(recoveryRequest)
	if err != nil {
		t.Fatal(err)
	}
	<-armed
	dead := make(chan struct{})
	go func() { s.crashForTest(); close(dead) }()
	// crashForTest cancels the running screen before it waits for the
	// workers; release the hook only after that cancellation is visible.
	waitFor(t, func() bool { return s.Stats().Draining })
	close(release)
	<-dead
	return v.ID
}

func TestCrashRecoveryResumesByteIdentical(t *testing.T) {
	dir := t.TempDir()
	want := referenceResult(t)
	id := crashAfterCheckpoints(t, dir, 2)

	// The dead process journaled exactly the 2 completed ligands, one
	// compact record each, and no terminal record.
	var recorded []string
	for _, ev := range journalEvents(t, dir) {
		switch {
		case ev.Job != id:
		case ev.Type == evLigand:
			recorded = append(recorded, ev.Ligand.Name)
		case ev.Type == evTerminal:
			t.Fatalf("crashed job has a terminal record: %+v", ev.View)
		}
	}
	if len(recorded) != 2 {
		t.Fatalf("journal holds %d ligand records %v, want 2", len(recorded), recorded)
	}

	// Boot a fresh service over the same data dir: the job comes back
	// queued and re-runs, docking only the 4 unfinished ligands.
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	var redocked atomic.Int64
	s2.mu.Lock()
	s2.recordHook = func(string, int) { redocked.Add(1) }
	s2.mu.Unlock()

	rec := s2.Recovery()
	if rec.RecoveredJobs != 1 || rec.ReplayedRecords == 0 {
		t.Fatalf("recovery stats %+v, want 1 recovered job", rec)
	}
	waitFor(t, func() bool {
		v, err := s2.Get(id)
		return err == nil && v.State.Terminal()
	})
	v, err := s2.Get(id)
	if err != nil || v.State != StateDone {
		t.Fatalf("recovered job finished as %+v (%v)", v, err)
	}
	assertMatchesReference(t, v.Result, want)
	if got := int(redocked.Load()); got != recoveryRequest.Library-2 {
		t.Errorf("resume re-docked %d ligands, want %d", got, recoveryRequest.Library-2)
	}
	if v.Attempts < 2 {
		t.Errorf("attempts = %d; the resumed execution should count past the crashed one", v.Attempts)
	}
	// Durability is the journal alone: no per-job snapshot files.
	if _, err := os.Stat(filepath.Join(dir, "checkpoints")); !os.IsNotExist(err) {
		t.Errorf("checkpoints directory exists: %v", err)
	}
}

// TestRecoveryPreservesTerminalJobs: a third boot after the job finished
// replays it as done — with its ranking — and re-enqueues nothing.
func TestRecoveryPreservesTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	want := referenceResult(t)
	id := crashAfterCheckpoints(t, dir, 2)

	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool {
		v, err := s2.Get(id)
		return err == nil && v.State.Terminal()
	})
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	s3, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s3.Shutdown(ctx)
	}()
	if rec := s3.Recovery(); rec.RecoveredJobs != 0 {
		t.Errorf("finished job re-enqueued: %+v", rec)
	}
	v, err := s3.Get(id)
	if err != nil || v.State != StateDone {
		t.Fatalf("replayed job: %+v (%v)", v, err)
	}
	assertMatchesReference(t, v.Result, want)
}

// TestIdempotencyAcrossRestart: a duplicate Idempotency-Key submission
// returns the original job — also after the service restarts from its
// journal, and over HTTP (202 for the first admission, 200 for replays).
func TestIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := durableConfig(dir)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.run = func(ctx context.Context, id string, req ScreenRequest) (*core.ScreenResult, error) {
		return stubResult(), nil
	}

	srv := httptest.NewServer(s.Handler())
	post := func(key string) (JobView, int) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/screens",
			jsonBody(t, ScreenRequest{Seed: 3}))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var v JobView
		decodeJSON(t, resp, &v)
		return v, resp.StatusCode
	}

	first, code := post("screen-42")
	if code != http.StatusAccepted || first.IdempotencyKey != "screen-42" {
		t.Fatalf("first submit: %d %+v", code, first)
	}
	dup, code := post("screen-42")
	if code != http.StatusOK || dup.ID != first.ID {
		t.Fatalf("duplicate submit: %d id=%s, want 200 with id %s", code, dup.ID, first.ID)
	}
	waitFor(t, func() bool {
		v, err := s.Get(first.ID)
		return err == nil && v.State == StateDone
	})
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	// After a restart the key still maps to the original (now finished)
	// job: a client retrying across the outage cannot double-submit.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	v, existing, err := s2.SubmitIdem(ScreenRequest{Seed: 3}, "screen-42")
	if err != nil || !existing || v.ID != first.ID {
		t.Fatalf("post-restart duplicate: existing=%v id=%s err=%v, want the original %s",
			existing, v.ID, err, first.ID)
	}
	if v.State != StateDone || v.Result == nil {
		t.Errorf("replayed original lost its outcome: %+v", v)
	}
	// A different key is a genuinely new job.
	v2, existing, err := s2.SubmitIdem(ScreenRequest{Seed: 3}, "screen-43")
	if err != nil || existing || v2.ID == first.ID {
		t.Errorf("fresh key reused a job: existing=%v id=%s err=%v", existing, v2.ID, err)
	}
}
