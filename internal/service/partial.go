package service

import (
	"fmt"
	"net/url"
	"sort"
	"strconv"
	"time"

	"github.com/metascreen/metascreen/internal/core"
)

// Pagination and partial rankings. Both exist for the same consumer: a
// ranking can be large (10k-ligand libraries), so GET responses window it
// with limit/offset, and a running job exposes the ligands it has already
// completed so the distributed coordinator can merge shard results as
// they stream in instead of waiting for whole shards. The coordinator
// reads them through a cursor (after=<seq>), so each poll costs only the
// ligands completed since the previous one.

// DefaultRankingLimit caps a ranking response (or a cursor page) when the
// client sends no limit; MaxRankingLimit caps what a client may ask for.
// Both protect the service from shipping unbounded payloads per request.
const (
	DefaultRankingLimit = 1000
	MaxRankingLimit     = 10000
)

// Page is a limit/offset window over a ranking.
type Page struct {
	Limit  int
	Offset int
}

// DefaultPage is the window applied when the client sends no parameters.
func DefaultPage() Page { return Page{Limit: DefaultRankingLimit} }

// ParsePage reads limit/offset query parameters, applying the documented
// defaults and caps. Malformed or non-positive limits and negative
// offsets are client errors.
func ParsePage(q url.Values) (Page, error) {
	p := DefaultPage()
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			return p, fmt.Errorf("service: limit %q must be a positive integer", v)
		}
		if n > MaxRankingLimit {
			n = MaxRankingLimit
		}
		p.Limit = n
	}
	if v := q.Get("offset"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			return p, fmt.Errorf("service: offset %q must be a non-negative integer", v)
		}
		p.Offset = n
	}
	return p, nil
}

// clip resolves the window against a ranking of n entries.
func (p Page) clip(n int) (lo, hi int) {
	lo = p.Offset
	if lo > n {
		lo = n
	}
	hi = n
	if p.Limit > 0 && lo+p.Limit < hi {
		hi = lo + p.Limit
	}
	return lo, hi
}

// PartialEntry is one completed ligand of a still-running (or finished)
// screen. Unlike RankEntry it carries the ligand's own modeled time and
// evaluation count, so a coordinator merging shards can rebuild the
// screen totals in library order — bit-identical to a single-node sum.
type PartialEntry struct {
	Rank        int     `json:"rank"`
	Ligand      string  `json:"ligand"`
	Atoms       int     `json:"atoms"`
	Score       float64 `json:"score"`
	Spot        int     `json:"spot"`
	SimSeconds  float64 `json:"sim_seconds"`
	Evaluations int64   `json:"evaluations"`
}

// partialEntry renders one ligand record for the wire.
func partialEntry(rec core.LigandRecord) PartialEntry {
	return PartialEntry{
		Ligand:      rec.Name,
		Atoms:       rec.Atoms,
		Score:       rec.Best.Score,
		Spot:        rec.Best.Spot,
		SimSeconds:  rec.SimulatedSeconds,
		Evaluations: rec.Evaluations,
	}
}

// PartialView reports the ligands a job has completed so far, in one of
// two shapes. Without a cursor it is a point-in-time ranking sorted by the
// final ranking's score-then-name rule (complete for a terminal job),
// windowed by limit/offset. With a cursor (after=<seq>) Entries are the
// records with sequence numbers after seq, in completion order and
// unranked; Next is the sequence number to pass as the following poll's
// after, and the cursor has reached the end when Next equals Completed.
type PartialView struct {
	ID        string         `json:"id"`
	State     JobState       `json:"state"`
	Completed int            `json:"completed"`
	Total     int            `json:"total"`
	Entries   []PartialEntry `json:"entries"`
	// EntriesTotal and EntriesOffset window a ranked view's Entries like
	// a paginated ranking; EntriesTotal always counts every completed
	// ligand.
	EntriesTotal  int `json:"entries_total,omitempty"`
	EntriesOffset int `json:"entries_offset,omitempty"`
	// Next is the sequence number of the last record served (in ranked
	// mode, the last record the job holds).
	Next int `json:"next"`
	// Incarnation identifies the serving process. Sequence numbers are
	// only meaningful within one incarnation: after a restart the replayed
	// records may be fewer or in another order, so a consumer that sees a
	// new token must restart its cursor from 0.
	Incarnation string `json:"incarnation,omitempty"`
	// RateLPS is the job's self-reported completion rate in
	// ligands/second, smoothed over record arrivals. A coordinator
	// polling shards folds it into its per-worker straggler estimates —
	// finer-grained than what it can infer from poll-to-poll deltas.
	RateLPS float64 `json:"rate_lps,omitempty"`
}

// Partial snapshots the ranking of the ligands a job has completed so
// far. The entries come from the job's ligand records, so they exist for
// every job, durable or not, running or finished.
func (s *Service) Partial(id string) (PartialView, error) {
	pv, err := s.PartialAfter(id, 0, 0)
	if err != nil {
		return pv, err
	}
	sort.Slice(pv.Entries, func(a, b int) bool {
		if pv.Entries[a].Score != pv.Entries[b].Score {
			return pv.Entries[a].Score < pv.Entries[b].Score
		}
		return pv.Entries[a].Ligand < pv.Entries[b].Ligand
	})
	for i := range pv.Entries {
		pv.Entries[i].Rank = i + 1
	}
	pv.EntriesTotal = len(pv.Entries)
	return pv, nil
}

// PartialAfter is the cursor read: at most limit records (0 = no cap)
// following sequence number after, in completion order. Its cost is
// proportional to the page, not to the job.
func (s *Service) PartialAfter(id string, after, limit int) (PartialView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	if !ok {
		return PartialView{}, ErrNotFound
	}
	total := j.req.Library
	if len(j.req.Ligands) > 0 {
		total = len(j.req.Ligands)
	}
	lo, hi := Page{Limit: limit, Offset: after}.clip(len(j.records))
	pv := PartialView{
		ID: j.id, State: j.state, Total: total,
		Completed: len(j.records), Next: hi,
		Entries:     make([]PartialEntry, hi-lo),
		Incarnation: s.incarnation, RateLPS: j.rate.Value(),
	}
	for i, rec := range j.records[lo:hi] {
		pv.Entries[i] = partialEntry(rec)
	}
	return pv, nil
}

// Paginate clips a ranked view's entries to the page window.
func (pv *PartialView) Paginate(p Page) {
	lo, hi := p.clip(len(pv.Entries))
	pv.Entries = pv.Entries[lo:hi]
	pv.EntriesOffset = lo
}

// recordLigand files one completed ligand: the job's record list grows
// (the /partial cursor sees it at once), its rate estimate updates, and
// with durability the record is journaled — one compact WAL append per
// ligand. A failed append degrades the service's durability (see
// appendEvent) but never the screen, which carries on un-journaled.
func (s *Service) recordLigand(id string, rec core.LigandRecord, newly int) {
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		return
	}
	j.records = append(j.records, rec)
	j.observeRate(1, time.Now())
	if s.journal != nil && s.appendEvent(jobEvent{Type: evLigand, Job: id, Ligand: &rec}) {
		s.metrics.ligandRecords.Inc()
	}
	hook := s.recordHook
	s.mu.Unlock()
	if hook != nil {
		hook(id, newly)
	}
}

// Ready reports readiness: the journal (if any) has been replayed, the
// worker pool is up, and the service is not draining. Load balancers and
// the distributed coordinator probe it via /readyz before routing work.
func (s *Service) Ready() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ready && !s.draining
}
