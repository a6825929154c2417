package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// Tests for the distributed-screening groundwork on the single-node
// service: ranking pagination, the /partial streaming endpoint, the
// /readyz probe, and the Ligands shard contract (a shard's per-ligand
// results are byte-identical to the same ligands inside a full run).

func TestParsePage(t *testing.T) {
	cases := []struct {
		query   string
		want    Page
		wantErr bool
	}{
		{"", Page{Limit: DefaultRankingLimit}, false},
		{"limit=5", Page{Limit: 5}, false},
		{"limit=5&offset=3", Page{Limit: 5, Offset: 3}, false},
		{"limit=999999", Page{Limit: MaxRankingLimit}, false},
		{"limit=0", Page{}, true},
		{"limit=-2", Page{}, true},
		{"limit=abc", Page{}, true},
		{"offset=-1", Page{}, true},
		{"offset=x", Page{}, true},
	}
	for _, tc := range cases {
		q, _ := url.ParseQuery(tc.query)
		got, err := ParsePage(q)
		if tc.wantErr {
			if err == nil {
				t.Errorf("ParsePage(%q) accepted", tc.query)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParsePage(%q): %v", tc.query, err)
		} else if got != tc.want {
			t.Errorf("ParsePage(%q) = %+v, want %+v", tc.query, got, tc.want)
		}
	}
}

func TestResultViewPaginate(t *testing.T) {
	mk := func() *ResultView {
		rv := &ResultView{}
		for i := 0; i < 10; i++ {
			rv.Ranking = append(rv.Ranking, RankEntry{Rank: i + 1})
		}
		return rv
	}
	rv := mk()
	rv.Paginate(Page{Limit: 3, Offset: 4})
	if rv.RankingTotal != 10 || rv.RankingOffset != 4 || len(rv.Ranking) != 3 || rv.Ranking[0].Rank != 5 {
		t.Fatalf("window = total %d offset %d len %d first %d",
			rv.RankingTotal, rv.RankingOffset, len(rv.Ranking), rv.Ranking[0].Rank)
	}
	rv = mk()
	rv.Paginate(Page{Limit: 5, Offset: 20})
	if len(rv.Ranking) != 0 || rv.RankingOffset != 10 {
		t.Fatalf("past-the-end window kept %d entries at offset %d", len(rv.Ranking), rv.RankingOffset)
	}
	// A nil result (queued job) must not panic.
	var nilRV *ResultView
	nilRV.Paginate(DefaultPage())
}

// realService boots a service with the real screening engine.
func realService(t *testing.T, cfg Config) *Service {
	t.Helper()
	return newTestService(t, cfg, nil)
}

var partialRequest = ScreenRequest{
	Dataset: "2BSM", Library: 6, Spots: 2, Metaheuristic: "M3", Scale: 0.02, Seed: 7,
}

// TestRankingPaginationHTTP: GET /v1/screens/{id} windows the ranking
// with limit/offset and reports the full length; bad params are 400.
func TestRankingPaginationHTTP(t *testing.T) {
	s := realService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, partialRequest)
	if v.State != StateDone {
		t.Fatalf("screen ended %s: %s", v.State, v.Error)
	}

	var page JobView
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/"+v.ID+"?limit=2&offset=4", nil, &page); code != http.StatusOK {
		t.Fatalf("paginated get status %d", code)
	}
	if page.Result.RankingTotal != 6 || page.Result.RankingOffset != 4 || len(page.Result.Ranking) != 2 {
		t.Fatalf("window: total %d offset %d len %d",
			page.Result.RankingTotal, page.Result.RankingOffset, len(page.Result.Ranking))
	}
	if page.Result.Ranking[0].Rank != 5 {
		t.Fatalf("first windowed rank %d, want 5", page.Result.Ranking[0].Rank)
	}
	var errBody map[string]string
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/"+v.ID+"?limit=bogus", nil, &errBody); code != http.StatusBadRequest {
		t.Fatalf("bad limit status %d", code)
	}
}

// TestPartialEndpoint: a finished job serves its complete per-ligand set
// with work totals that reproduce the job's aggregates exactly.
func TestPartialEndpoint(t *testing.T) {
	s := realService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, partialRequest)
	if v.State != StateDone {
		t.Fatalf("screen ended %s: %s", v.State, v.Error)
	}

	var pv PartialView
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/"+v.ID+"/partial", nil, &pv); code != http.StatusOK {
		t.Fatalf("partial status %d", code)
	}
	if pv.Completed != 6 || pv.Total != 6 || len(pv.Entries) != 6 {
		t.Fatalf("partial completed %d/%d with %d entries", pv.Completed, pv.Total, len(pv.Entries))
	}
	var sim float64
	var evals int64
	for i, e := range pv.Entries {
		if e.Rank != i+1 {
			t.Errorf("entry %d has rank %d", i, e.Rank)
		}
		if e.Ligand != v.Result.Ranking[i].Ligand || e.Score != v.Result.Ranking[i].Score {
			t.Errorf("entry %d (%s, %g) != ranking row (%s, %g)",
				i, e.Ligand, e.Score, v.Result.Ranking[i].Ligand, v.Result.Ranking[i].Score)
		}
		sim += e.SimSeconds
		evals += e.Evaluations
	}
	// Summed in rank order this may differ in float rounding from the
	// job's library-order total, but evaluations are integral.
	if evals != v.Result.Evaluations {
		t.Errorf("per-ligand evaluations sum %d != job total %d", evals, v.Result.Evaluations)
	}
	if sim == 0 {
		t.Error("per-ligand sim_seconds all zero")
	}

	// Pagination applies to partials too.
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/"+v.ID+"/partial?limit=2&offset=2", nil, &pv); code != http.StatusOK {
		t.Fatalf("paginated partial status %d", code)
	}
	if pv.EntriesTotal != 6 || pv.EntriesOffset != 2 || len(pv.Entries) != 2 || pv.Entries[0].Rank != 3 {
		t.Fatalf("partial window: total %d offset %d len %d first rank %d",
			pv.EntriesTotal, pv.EntriesOffset, len(pv.Entries), pv.Entries[0].Rank)
	}

	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/nope/partial", nil, &pv); code != http.StatusNotFound {
		t.Fatalf("unknown job partial status %d", code)
	}
}

// TestReadyz: ready after boot, 503 once draining.
func TestReadyz(t *testing.T) {
	run, release := blockingRunner()
	s := newTestService(t, Config{Workers: 1}, run)
	defer release()
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	var body map[string]any
	if code := doJSON(t, c, "GET", srv.URL+"/readyz", nil, &body); code != http.StatusOK {
		t.Fatalf("fresh service readyz %d", code)
	}
	if ready, _ := body["ready"].(bool); !ready {
		t.Fatal("fresh service not ready")
	}
	go s.Shutdown(context.Background())
	waitFor(t, func() bool {
		return doJSON(t, c, "GET", srv.URL+"/readyz", nil, &body) == http.StatusServiceUnavailable
	})
}

// TestLigandShardsMatchFullRun: the determinism contract the distributed
// coordinator is built on — screening a subset of the library via
// Ligands produces per-ligand scores identical to the full run, so two
// disjoint shards merge back into exactly the full ranking.
func TestLigandShardsMatchFullRun(t *testing.T) {
	s := realService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	full := submitAndWait(t, c, srv.URL, partialRequest)
	if full.State != StateDone {
		t.Fatalf("full screen ended %s: %s", full.State, full.Error)
	}

	shardA := partialRequest
	shardA.Ligands = []string{"LIG-000", "LIG-002", "LIG-004"}
	shardB := partialRequest
	shardB.Ligands = []string{"LIG-001", "LIG-003", "LIG-005"}

	merged := make(map[string]RankEntry)
	for _, req := range []ScreenRequest{shardA, shardB} {
		v := submitAndWait(t, c, srv.URL, req)
		if v.State != StateDone {
			t.Fatalf("shard ended %s: %s", v.State, v.Error)
		}
		if len(v.Result.Ranking) != 3 {
			t.Fatalf("shard ranked %d ligands, want 3", len(v.Result.Ranking))
		}
		for _, e := range v.Result.Ranking {
			merged[e.Ligand] = e
		}
	}
	for _, want := range full.Result.Ranking {
		got, ok := merged[want.Ligand]
		if !ok {
			t.Fatalf("ligand %s missing from merged shards", want.Ligand)
		}
		if got.Score != want.Score || got.Spot != want.Spot || got.Atoms != want.Atoms {
			t.Errorf("ligand %s: shard (%g, spot %d) != full run (%g, spot %d)",
				want.Ligand, got.Score, got.Spot, want.Score, want.Spot)
		}
	}

	// Invalid shards are rejected at admission.
	bad := partialRequest
	bad.Ligands = []string{"LIG-099"}
	var errBody map[string]string
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", bad, &errBody); code != http.StatusBadRequest {
		t.Fatalf("out-of-library ligand admitted with status %d", code)
	}
	bad.Ligands = []string{"LIG-001", "LIG-001"}
	if code := doJSON(t, c, "POST", srv.URL+"/v1/screens", bad, &errBody); code != http.StatusBadRequest {
		t.Fatalf("duplicate ligand admitted with status %d", code)
	}
}

// TestPartialCursor: /partial?after=<seq> pages through a job's records
// in completion order — each page starts where the previous one's next
// left off, the union is the complete ranking's ligand set with nothing
// repeated, and next reaches completed at the end. Every page carries
// the process's incarnation token; a malformed cursor is a client error.
func TestPartialCursor(t *testing.T) {
	s := realService(t, Config{Workers: 1})
	srv := httptest.NewServer(s.Handler())
	defer srv.Close()
	c := srv.Client()

	v := submitAndWait(t, c, srv.URL, partialRequest)
	if v.State != StateDone {
		t.Fatalf("screen ended %s: %s", v.State, v.Error)
	}
	seen := map[string]PartialEntry{}
	after, token := 0, ""
	for pages := 0; ; pages++ {
		if pages > 6 {
			t.Fatal("cursor never reached the end")
		}
		var pv PartialView
		u := fmt.Sprintf("%s/v1/screens/%s/partial?after=%d&limit=4", srv.URL, v.ID, after)
		if code := doJSON(t, c, "GET", u, nil, &pv); code != http.StatusOK {
			t.Fatalf("cursor page status %d", code)
		}
		if pv.Incarnation == "" || (token != "" && pv.Incarnation != token) {
			t.Fatalf("incarnation token %q (previous %q)", pv.Incarnation, token)
		}
		token = pv.Incarnation
		if pv.Next != after+len(pv.Entries) || len(pv.Entries) > 4 {
			t.Fatalf("page after=%d: %d entries, next=%d", after, len(pv.Entries), pv.Next)
		}
		for _, e := range pv.Entries {
			if _, dup := seen[e.Ligand]; dup {
				t.Fatalf("ligand %s served twice", e.Ligand)
			}
			seen[e.Ligand] = e
		}
		after = pv.Next
		if pv.Next == pv.Completed {
			break
		}
	}
	if len(seen) != len(v.Result.Ranking) {
		t.Fatalf("cursor served %d ligands, ranking has %d", len(seen), len(v.Result.Ranking))
	}
	for _, r := range v.Result.Ranking {
		if e, ok := seen[r.Ligand]; !ok || e.Score != r.Score || e.Spot != r.Spot {
			t.Errorf("ligand %s: cursor entry %+v, ranking row %+v", r.Ligand, e, r)
		}
	}
	var errBody map[string]string
	if code := doJSON(t, c, "GET", srv.URL+"/v1/screens/"+v.ID+"/partial?after=-1", nil, &errBody); code != http.StatusBadRequest {
		t.Errorf("negative cursor status %d, want 400", code)
	}

	// Another process (a restart) numbers its records under a new token.
	other := realService(t, Config{Workers: 1})
	if other.incarnation == s.incarnation {
		t.Error("two service instances share an incarnation token")
	}
}
