package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/wal"
)

// corruptJournalTail rewrites the newest journal segment with mutate
// applied to its last record's frame (header + payload) — the ligand
// record the interrupted job journaled last.
func corruptJournalTail(t *testing.T, dir string, mutate func(frame []byte) []byte) {
	t.Helper()
	segs, err := filepath.Glob(filepath.Join(dir, "journal", "seg-*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no journal segments (%v)", err)
	}
	sort.Strings(segs)
	path := segs[len(segs)-1]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	recs, valid := wal.ScanRecords(data)
	if valid != len(data) || len(recs) == 0 {
		t.Fatalf("journal tail already damaged: %d records, %d/%d valid bytes", len(recs), valid, len(data))
	}
	last := wal.AppendFrame(nil, recs[len(recs)-1])
	var ev jobEvent
	if err := json.Unmarshal(recs[len(recs)-1], &ev); err != nil || ev.Type != evLigand {
		t.Fatalf("last journal record is %q (%v), want a ligand record", ev.Type, err)
	}
	head := data[:len(data)-len(last)]
	out := append(append([]byte(nil), head...), mutate(last)...)
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCorruptionFallback: a torn or corrupt journal tail must
// never stop a job from finishing. The crash left the job's second ligand
// record last in the journal; whichever way that record is damaged, the
// WAL's CRC framing drops it (preserving the bytes under
// journal/quarantine/ for post-mortem), the job resumes from the one
// record before it, re-docks the rest and still produces the reference
// ranking.
func TestCheckpointCorruptionFallback(t *testing.T) {
	want := referenceResult(t)
	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)-len(b)/3] }},
		{"bit_flipped", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)-len(c)/3] ^= 0x10
			return c
		}},
		// The header landed but none of the payload did.
		{"zero_length", func(b []byte) []byte { return b[:8] }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			id := crashAfterCheckpoints(t, dir, 2)
			corruptJournalTail(t, dir, tc.mutate)

			s, err := New(durableConfig(dir))
			if err != nil {
				t.Fatalf("boot with corrupt journal tail failed: %v", err)
			}
			defer func() {
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				s.Shutdown(ctx)
			}()
			if rec := s.Recovery(); rec.TruncatedBytes == 0 || rec.RecoveredJobs != 1 {
				t.Errorf("recovery %+v, want a truncated tail and 1 recovered job", rec)
			}

			waitFor(t, func() bool {
				v, err := s.Get(id)
				return err == nil && v.State.Terminal()
			})
			v, err := s.Get(id)
			if err != nil || v.State != StateDone {
				t.Fatalf("job %s after corrupt-tail reboot: state %q err %v, want done", id, v.State, err)
			}
			assertMatchesReference(t, v.Result, want)

			tails, _ := filepath.Glob(filepath.Join(dir, "journal", "quarantine", "*.tail"))
			if len(tails) != 1 {
				t.Errorf("corrupt tail not preserved under journal/quarantine/: %v", tails)
			}
			var buf strings.Builder
			if err := s.metrics.WriteTo(&buf, s.Stats()); err != nil {
				t.Fatal(err)
			}
			if strings.Contains(buf.String(), "metascreen_journal_truncated_bytes_total 0\n") {
				t.Errorf("journal_truncated_bytes_total = 0, want > 0")
			}
		})
	}
}

// TestStorageFullDegradedMode: when the disk fills, the service degrades
// to read-only — submissions get 507 + Retry-After while ranking, list
// and metrics reads keep being served — and recovers in place (no
// restart) once space frees, re-enabling journaling. A restart over the
// same dir must still know every job that was acknowledged with a 202.
func TestStorageFullDegradedMode(t *testing.T) {
	saved := storageProbeInterval
	storageProbeInterval = 0
	defer func() { storageProbeInterval = saved }()

	dir := t.TempDir()
	// Roomy enough to boot, admit a few jobs and (after the operator
	// frees space) run one more to completion — compaction, ligand
	// records and all — yet small enough that the submit loop fills it.
	plan, err := fsim.ParsePlan("*:enospc@131072")
	if err != nil {
		t.Fatal(err)
	}
	faulty := fsim.New(plan, fsim.Config{Seed: 99})
	cfg := durableConfig(dir)
	cfg.FS = faulty
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()

	post := func(key string) (JobView, int, string) {
		t.Helper()
		req, err := http.NewRequest("POST", srv.URL+"/v1/screens", jsonBody(t, recoveryRequest))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := srv.Client().Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		retryAfter := resp.Header.Get("Retry-After")
		var v JobView
		if resp.StatusCode == http.StatusAccepted {
			decodeJSON(t, resp, &v)
		} else {
			io.Copy(io.Discard, resp.Body)
		}
		return v, resp.StatusCode, retryAfter
	}
	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	// Submit until the simulated disk fills. Every 202 is an acknowledged,
	// journaled admission; the first refusal must be a 507 with advice on
	// when to retry.
	var ackedIDs []string
	var sawFull bool
	var retryAfter string
	for i := 0; i < 200; i++ {
		v, code, ra := post(fmt.Sprintf("full-%d", i))
		if code == http.StatusAccepted {
			ackedIDs = append(ackedIDs, v.ID)
			waitFor(t, func() bool {
				got, err := s.Get(v.ID)
				return err == nil && got.State.Terminal()
			})
			continue
		}
		sawFull, retryAfter = true, ra
		if code != http.StatusInsufficientStorage {
			t.Fatalf("submit %d: status %d, want 507", i, code)
		}
		break
	}
	if !sawFull {
		t.Fatal("disk never filled: no 507 observed")
	}
	if retryAfter == "" {
		t.Error("507 response missing Retry-After header")
	}
	if len(ackedIDs) == 0 {
		t.Fatal("no job was acknowledged before the disk filled")
	}

	// Degraded means read-only, not down: rankings, listings, traces and
	// metrics keep flowing.
	if code, _ := get("/v1/screens"); code != http.StatusOK {
		t.Errorf("GET /v1/screens while degraded: %d, want 200", code)
	}
	if code, _ := get("/v1/screens/" + ackedIDs[0]); code != http.StatusOK {
		t.Errorf("GET job while degraded: %d, want 200", code)
	}
	if code, _ := get("/v1/screens/" + ackedIDs[0] + "/trace"); code != http.StatusOK {
		t.Errorf("GET trace while degraded: %d, want 200", code)
	}
	code, metrics := get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics while degraded: %d, want 200", code)
	}
	if !strings.Contains(metrics, "metascreen_storage_degraded 1") {
		t.Errorf("metrics do not report metascreen_storage_degraded 1")
	}
	st := s.Stats()
	if !st.StorageDegraded || st.StorageReason != "disk_full" {
		t.Errorf("Stats() = degraded=%v reason=%q, want degraded with reason disk_full", st.StorageDegraded, st.StorageReason)
	}
	if snap := s.DebugSnapshot(); !snap.Storage.Degraded {
		t.Errorf("debug snapshot does not flag storage degradation")
	}

	// Free the disk: the next submission probes, recovers the journal in
	// place and is admitted — no restart needed.
	faulty.FreeSpace()
	v, code2, _ := post("after-recovery")
	if code2 != http.StatusAccepted {
		t.Fatalf("submit after FreeSpace: status %d, want 202", code2)
	}
	ackedIDs = append(ackedIDs, v.ID)
	waitFor(t, func() bool {
		got, err := s.Get(v.ID)
		return err == nil && got.State.Terminal()
	})
	st = s.Stats()
	if st.StorageDegraded {
		t.Error("service still degraded after successful recovery")
	}
	_, body := get("/metrics")
	if !strings.Contains(body, "metascreen_storage_degraded 0") {
		t.Error("metrics still report storage degraded after recovery")
	}
	if strings.Contains(body, "metascreen_storage_recoveries_total 0\n") {
		t.Error("storage_recoveries_total = 0 after in-place recovery")
	}

	// Restart over the same dir with a healthy disk: every 202 survived.
	srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	s2, err := New(durableConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s2.Shutdown(ctx)
	}()
	for _, id := range ackedIDs {
		if _, err := s2.Get(id); err != nil {
			t.Errorf("acknowledged job %s lost across restart: %v", id, err)
		}
	}
}
