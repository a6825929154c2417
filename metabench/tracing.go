package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/metascreen/metascreen/internal/conformation"
	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/fsim"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/trace"
)

// The traced half of a --trace 1 run. Every layer is observed from
// outside, through the interfaces the program already exposes:
//
//   - core.Backend, wrapped by the BackendFactory (forcefield, core, sched);
//   - metaheuristic.Algorithm and its SpotState (metaheuristic);
//   - each worker's service Handler and an fsim.FS under service.Config.FS
//     (service, with its wal journal and checkpoints);
//   - dist.Config.Transport and an fsim.FS under dist.Config.FS (dist).
//
// Spans are kept in memory (capped at maxSpans) and written out at the end
// as a Chrome trace through internal/trace. Each span carries its own id,
// its parent's id and the id of the op (one screen or one table row) it
// belongs to. Totals are exact even when spans are dropped or coalesced.

// maxSpans bounds the spans kept for the Chrome trace (~200 B each).
const maxSpans = 150_000

// parentHeader carries the coordinator-side span id to the worker handler
// so worker spans name the request that caused them.
const parentHeader = "X-Metabench-Parent"

type span struct {
	track, name, cat string
	start, end       time.Duration // since the tracer's epoch
	id, parent, op   int64
	count            int // coalesced calls (1 = a single call)
}

// tracer collects the spans and per-layer totals of one traced phase.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	op     atomic.Int64 // id of the op in flight; ops run one at a time

	mu      sync.Mutex
	opStart time.Duration
	opName  string
	runs    []*runTrace         // engine runs of the op in flight
	byG     map[int64]*runTrace // goroutine -> its current engine run
	gtracks map[int64]string    // goroutine -> track name
	hosts   map[string]string   // worker host:port -> worker name
	st      layerStats
}

// layerStats is everything a traced phase measured. Guarded by tracer.mu.
type layerStats struct {
	spans   []span
	lost    int
	eng     engineTotals
	svcLat  map[string][]float64 // worker handler latencies by route
	svcBusy time.Duration        // worker handler time, all routes
	pollRTT []float64
	rttBusy time.Duration // coordinator->worker round trips, all routes

	workerFS, coordFS fsStats
	net               netStats
}

func newTracer() *tracer {
	tr := &tracer{
		epoch:   time.Now(),
		byG:     map[int64]*runTrace{},
		gtracks: map[int64]string{},
		hosts:   map[string]string{},
	}
	tr.reset()
	return tr
}

// reset discards everything measured so far, such as a warm-up op.
func (tr *tracer) reset() {
	tr.mu.Lock()
	tr.st = layerStats{svcLat: map[string][]float64{}}
	tr.mu.Unlock()
}

func (tr *tracer) now() time.Duration { return time.Since(tr.epoch) }

// beginOp opens the span of one op; a nil tracer ignores it.
func (tr *tracer) beginOp(name string) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	tr.opStart, tr.opName = tr.now(), name
	tr.mu.Unlock()
	tr.op.Store(tr.nextID.Add(1))
}

// endOp closes the op span and folds the op's engine runs into the totals.
func (tr *tracer) endOp() {
	if tr == nil {
		return
	}
	end := tr.now()
	op := tr.op.Load()
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.keep(span{track: "ops", name: tr.opName, cat: "op", start: tr.opStart, end: end, id: op, op: op, count: 1})
	for _, rt := range tr.runs {
		tr.st.eng.add(rt)
		last := rt.start
		for _, s := range rt.spans {
			s.parent, s.op, s.id = rt.id, rt.op, tr.nextID.Add(1)
			last = max(last, s.end)
			tr.keep(s)
		}
		tr.keep(span{track: rt.track, name: rt.name, cat: "core", start: rt.start, end: last,
			id: rt.id, parent: rt.op, op: rt.op, count: 1})
	}
	tr.runs = nil
	clear(tr.byG)
}

// keep stores a span for the Chrome trace. Caller holds tr.mu.
func (tr *tracer) keep(s span) {
	if len(tr.st.spans) >= maxSpans {
		tr.st.lost++
		return
	}
	tr.st.spans = append(tr.st.spans, s)
}

// record stores one span of a concurrent layer (HTTP, disk).
func (tr *tracer) record(track, name, cat string, start, end time.Duration, parent int64) {
	id := tr.nextID.Add(1)
	op := tr.op.Load()
	if parent == 0 {
		parent = op
	}
	tr.mu.Lock()
	tr.keep(span{track: track, name: name, cat: cat, start: start, end: end, id: id, parent: parent, op: op, count: 1})
	tr.mu.Unlock()
}

func (tr *tracer) kept() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return len(tr.st.spans)
}

func (tr *tracer) dropped() int {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return tr.st.lost
}

// writeChrome exports the kept spans through internal/trace.
func (tr *tracer) writeChrome(path string) error {
	rec := &trace.Recorder{}
	tr.mu.Lock()
	for _, s := range tr.st.spans {
		name := s.name
		if s.count > 1 {
			name = fmt.Sprintf("%s x%d", s.name, s.count)
		}
		rec.AddSpan(trace.Span{
			Track: s.track, Name: name, Cat: s.cat,
			Start: s.start.Seconds(), End: s.end.Seconds(),
			Args: map[string]string{
				"id":     strconv.FormatInt(s.id, 10),
				"parent": strconv.FormatInt(s.parent, 10),
				"op":     strconv.FormatInt(s.op, 10),
			},
		})
	}
	tr.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := rec.WriteChrome(w); err != nil {
		f.Close()
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- engine layers: core.Backend and metaheuristic.SpotState --------------

// phaseKind names one engine boundary a span is recorded at.
type phaseKind int

const (
	phScore phaseKind = iota
	phImprove
	phHostOps
	phPropose
	phTargets
	phIntegrate
	phSeed
	numPhases
)

var phaseNames = [numPhases]struct{ name, cat string }{
	phScore:     {"core.backend.score", "backend"},
	phImprove:   {"core.backend.improve", "backend"},
	phHostOps:   {"core.backend.hostops", "backend"},
	phPropose:   {"metaheuristic.propose", "metaheuristic"},
	phTargets:   {"metaheuristic.targets", "metaheuristic"},
	phIntegrate: {"metaheuristic.integrate", "metaheuristic"},
	phSeed:      {"metaheuristic.seed", "metaheuristic"},
}

// runTrace is one engine run (one ligand of a screen, or one of a table
// row's four runs). Only the run's own goroutine touches it until the op
// ends, so its fields need no lock.
type runTrace struct {
	id, op  int64
	name    string
	track   string
	start   time.Duration
	pool    bool // the backend is a simulated multi-GPU pool (sched)
	backend core.Backend
	tr      *tracer

	dur   [numPhases]time.Duration
	spans []span
	// run and gens come from the engine's Result once the run ends.
	run  time.Duration
	gens int
}

// newRun registers an engine run of the op in flight.
func (tr *tracer) newRun(name, track string, pool bool) *runTrace {
	rt := &runTrace{id: tr.nextID.Add(1), op: tr.op.Load(), name: name, track: track, start: tr.now(), pool: pool, tr: tr}
	tr.mu.Lock()
	tr.runs = append(tr.runs, rt)
	tr.mu.Unlock()
	return rt
}

// add accounts one call. Back-to-back calls of the same phase (Propose on
// every spot of a generation) coalesce into one span; durations stay exact.
func (rt *runTrace) add(k phaseKind, t0 time.Duration) {
	t1 := rt.tr.now()
	rt.dur[k] += t1 - t0
	if n := len(rt.spans); n > 0 && rt.spans[n-1].name == phaseNames[k].name {
		rt.spans[n-1].end = t1
		rt.spans[n-1].count++
		return
	}
	rt.spans = append(rt.spans, span{track: rt.track, name: phaseNames[k].name, cat: phaseNames[k].cat, start: t0, end: t1, count: 1})
}

// goid returns the calling goroutine's id. The screen path has no hook
// that names the ligand a metaheuristic instance serves, but ScreenCtx
// builds a ligand's backend and runs its engine on one goroutine, so the
// goroutine pairs the two wrappers.
func goid() int64 {
	var buf [32]byte
	n := runtime.Stack(buf[:], false)
	f := strings.Fields(string(buf[:n]))
	if len(f) < 2 {
		return 0
	}
	id, _ := strconv.ParseInt(f[1], 10, 64)
	return id
}

// backendFactory wraps every backend the factory builds. Runs are named
// after their ligand and drawn on one track per screen goroutine.
func (tr *tracer) backendFactory(inner core.BackendFactory) core.BackendFactory {
	return func(p *core.Problem) (core.Backend, error) {
		b, err := inner(p)
		if err != nil {
			return nil, err
		}
		g := goid()
		tr.mu.Lock()
		track, ok := tr.gtracks[g]
		if !ok {
			track = fmt.Sprintf("screen-worker-%d", len(tr.gtracks))
			tr.gtracks[g] = track
		}
		tr.mu.Unlock()
		_, pool := b.(*core.PoolBackend)
		rt := tr.newRun("ligand "+p.Ligand.Name, track, pool)
		tr.mu.Lock()
		tr.byG[g] = rt
		tr.mu.Unlock()
		return rt.wrap(b), nil
	}
}

// wrap returns b reporting to rt.
func (rt *runTrace) wrap(b core.Backend) core.Backend {
	rt.backend = b
	return &tracedBackend{Backend: b, rt: rt}
}

// tracedBackend times the three Backend calls the engine makes per
// generation and forwards every optional interface the engine and
// ScreenCtx type-assert, so wrapping changes no result: a method the
// inner backend lacks answers exactly what the engine assumes when the
// assertion fails (zero energy, no faults, no warm-up factors, no error).
type tracedBackend struct {
	core.Backend
	rt *runTrace
}

func (b *tracedBackend) ScoreBatch(confs []*conformation.Conformation) {
	t0 := b.rt.tr.now()
	b.Backend.ScoreBatch(confs)
	b.rt.add(phScore, t0)
}

func (b *tracedBackend) ImproveBatch(items []core.ImproveItem, moves int, scale conformation.MoveScale) {
	t0 := b.rt.tr.now()
	b.Backend.ImproveBatch(items, moves, scale)
	b.rt.add(phImprove, t0)
}

func (b *tracedBackend) HostOps(count int) {
	t0 := b.rt.tr.now()
	b.Backend.HostOps(count)
	b.rt.add(phHostOps, t0)
}

func (b *tracedBackend) Err() error {
	if e, ok := b.Backend.(interface{ Err() error }); ok {
		return e.Err()
	}
	return nil
}

func (b *tracedBackend) EnergyJoules() float64 {
	if e, ok := b.Backend.(interface{ EnergyJoules() float64 }); ok {
		return e.EnergyJoules()
	}
	return 0
}

func (b *tracedBackend) FaultTotals() (faults, retries, resplits int64) {
	if f, ok := b.Backend.(interface {
		FaultTotals() (int64, int64, int64)
	}); ok {
		return f.FaultTotals()
	}
	return 0, 0, 0
}

func (b *tracedBackend) WarmupFactors() map[string][]float64 {
	if w, ok := b.Backend.(interface {
		WarmupFactors() map[string][]float64
	}); ok {
		return w.WarmupFactors()
	}
	return nil
}

func (b *tracedBackend) SetLogger(l *slog.Logger) {
	if s, ok := b.Backend.(interface{ SetLogger(*slog.Logger) }); ok {
		s.SetLogger(l)
	}
}

func (b *tracedBackend) SetTrace(r *trace.Recorder) {
	if s, ok := b.Backend.(interface{ SetTrace(*trace.Recorder) }); ok {
		s.SetTrace(r)
	}
}

// algorithm wraps a metaheuristic. With rt nil its spot states report to
// the engine run of the calling goroutine (the screen path).
func (tr *tracer) algorithm(a metaheuristic.Algorithm, rt *runTrace) metaheuristic.Algorithm {
	return &tracedAlgorithm{Algorithm: a, tr: tr, rt: rt}
}

type tracedAlgorithm struct {
	metaheuristic.Algorithm
	tr *tracer
	rt *runTrace
}

func (a *tracedAlgorithm) NewSpotState(ctx *metaheuristic.SpotContext) metaheuristic.SpotState {
	rt := a.rt
	if rt == nil {
		g := goid()
		a.tr.mu.Lock()
		rt = a.tr.byG[g]
		a.tr.mu.Unlock()
	}
	t0 := rt.tr.now()
	st := a.Algorithm.NewSpotState(ctx)
	rt.add(phSeed, t0)
	return &tracedSpot{SpotState: st, rt: rt}
}

// tracedSpot times the template's host phases. Done, Best and Population
// are queries the engine makes between phases; they stay in engine time.
type tracedSpot struct {
	metaheuristic.SpotState
	rt *runTrace
}

func (s *tracedSpot) Seed() metaheuristic.Population {
	t0 := s.rt.tr.now()
	p := s.SpotState.Seed()
	s.rt.add(phSeed, t0)
	return p
}

func (s *tracedSpot) Begin(pop metaheuristic.Population) {
	t0 := s.rt.tr.now()
	s.SpotState.Begin(pop)
	s.rt.add(phSeed, t0)
}

func (s *tracedSpot) Propose() metaheuristic.Population {
	t0 := s.rt.tr.now()
	p := s.SpotState.Propose()
	s.rt.add(phPropose, t0)
	return p
}

func (s *tracedSpot) ImproveTargets(scom metaheuristic.Population) []int {
	t0 := s.rt.tr.now()
	idx := s.SpotState.ImproveTargets(scom)
	s.rt.add(phTargets, t0)
	return idx
}

func (s *tracedSpot) Integrate(scom metaheuristic.Population) {
	t0 := s.rt.tr.now()
	s.SpotState.Integrate(scom)
	s.rt.add(phIntegrate, t0)
}

// engineTotals sums the engine layers over every run of the phase.
type engineTotals struct {
	dur         [numPhases]time.Duration
	kernel      time.Duration // score+improve on host backends (forcefield)
	kernelEvals int64
	pool        time.Duration // every call on a pool backend (sched + cudasim)
	evals       int64
	run         time.Duration
	gens        int64
}

func (e *engineTotals) add(rt *runTrace) {
	for k, d := range rt.dur {
		e.dur[k] += d
	}
	evals := rt.backend.Evaluations()
	e.evals += evals
	if rt.pool {
		e.pool += rt.dur[phScore] + rt.dur[phImprove] + rt.dur[phHostOps]
	} else {
		e.kernel += rt.dur[phScore] + rt.dur[phImprove]
		e.kernelEvals += evals
	}
	e.run += rt.run
	e.gens += int64(rt.gens)
}

// noteScreen attaches the engine's own run times and generation counts to
// the screen's runs, matched by ligand name.
func (tr *tracer) noteScreen(res *core.ScreenResult) {
	if tr == nil {
		return
	}
	byName := map[string]*core.Result{}
	for _, e := range res.Ranking {
		byName["ligand "+e.Ligand.Name] = e.Result
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, rt := range tr.runs {
		if r := byName[rt.name]; r != nil {
			rt.run = time.Duration(r.WallSeconds * float64(time.Second))
			rt.gens = r.Generations
		}
	}
}

// --- service and dist: HTTP and disk -------------------------------------

// fsStats counts one role's durable writes.
type fsStats struct {
	ckptBytes, walBytes int64
	fsyncs, renames     int64
	fsync, busy         time.Duration
}

// tracedFS counts bytes written to checkpoints (files in a "checkpoints"
// directory) and to the journal (everything else), fsyncs of files and
// directories, and renames.
type tracedFS struct {
	fsim.FS
	tr    *tracer
	track string
	st    *fsStats // points into tr.st; guarded by tr.mu
}

// fs wraps base, counting into st.
func (tr *tracer) fs(base fsim.FS, track string, st *fsStats) fsim.FS {
	return &tracedFS{FS: base, tr: tr, track: track, st: st}
}

func (f *tracedFS) OpenFile(path string, flag int, perm os.FileMode) (fsim.File, error) {
	file, err := f.FS.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	ckpt := filepath.Base(filepath.Dir(path)) == "checkpoints"
	return &tracedFile{File: file, fs: f, ckpt: ckpt}, nil
}

func (f *tracedFS) Rename(oldpath, newpath string) error {
	t0 := f.tr.now()
	err := f.FS.Rename(oldpath, newpath)
	f.count(t0, func(st *fsStats, _ time.Duration) { st.renames++ })
	return err
}

func (f *tracedFS) SyncDir(dir string) error {
	t0 := f.tr.now()
	err := f.FS.SyncDir(dir)
	f.synced(t0, "fsync dir")
	return err
}

// count applies update with the call's duration since t0 and adds that
// duration to the I/O busy time.
func (f *tracedFS) count(t0 time.Duration, update func(st *fsStats, d time.Duration)) time.Duration {
	t1 := f.tr.now()
	f.tr.mu.Lock()
	update(f.st, t1-t0)
	f.st.busy += t1 - t0
	f.tr.mu.Unlock()
	return t1
}

func (f *tracedFS) synced(t0 time.Duration, name string) {
	t1 := f.count(t0, func(st *fsStats, d time.Duration) {
		st.fsyncs++
		st.fsync += d
	})
	f.tr.record(f.track, name, "disk", t0, t1, 0)
}

type tracedFile struct {
	fsim.File
	fs   *tracedFS
	ckpt bool
}

func (f *tracedFile) Write(p []byte) (int, error) {
	t0 := f.fs.tr.now()
	n, err := f.File.Write(p)
	f.fs.count(t0, func(st *fsStats, _ time.Duration) {
		if f.ckpt {
			st.ckptBytes += int64(n)
		} else {
			st.walBytes += int64(n)
		}
	})
	return n, err
}

func (f *tracedFile) Sync() error {
	t0 := f.fs.tr.now()
	err := f.File.Sync()
	f.fs.synced(t0, "fsync")
	return err
}

// route classifies a screening-API request.
func route(method, path string) string {
	switch {
	case method == http.MethodPost && strings.HasSuffix(path, "/v1/screens"):
		return "submit"
	case strings.HasSuffix(path, "/partial"):
		return "partial"
	}
	return strings.ToLower(method)
}

// handler wraps one worker's HTTP API.
func (tr *tracer) handler(name string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		t0 := tr.now()
		h.ServeHTTP(w, r)
		t1 := tr.now()
		rt := route(r.Method, r.URL.Path)
		parent, _ := strconv.ParseInt(r.Header.Get(parentHeader), 10, 64)
		tr.record(name+"/http", "service."+rt, "service", t0, t1, parent)
		tr.mu.Lock()
		tr.st.svcLat[rt] = append(tr.st.svcLat[rt], (t1 - t0).Seconds())
		tr.st.svcBusy += t1 - t0
		tr.mu.Unlock()
	})
}

// netStats counts the coordinator's requests to workers and, from its
// /metrics, what it merged.
type netStats struct {
	dispatches, polls, failures int64
	pollBytes, entries, merged  int64
	stolen, hedges              int64
}

// nameWorker labels a worker's host:port for span tracks.
func (tr *tracer) nameWorker(url, name string) {
	tr.mu.Lock()
	tr.hosts[strings.TrimPrefix(url, "http://")] = name
	tr.mu.Unlock()
}

// transport wraps the coordinator's requests to workers. Partial-poll
// bodies are read inside the round trip so their size and entry count
// can be recorded; the coordinator then reads the buffered copy.
func (tr *tracer) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripper(func(req *http.Request) (*http.Response, error) {
		rt := route(req.Method, req.URL.Path)
		tr.mu.Lock()
		worker := tr.hosts[req.URL.Host]
		tr.mu.Unlock()
		id := tr.nextID.Add(1)
		req = req.Clone(req.Context())
		req.Header.Set(parentHeader, strconv.FormatInt(id, 10))
		t0 := tr.now()
		resp, err := base.RoundTrip(req)
		var body []byte
		if err == nil && rt == "partial" {
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			resp.Body = io.NopCloser(bytes.NewReader(body))
		}
		t1 := tr.now()
		var pv struct {
			Entries []json.RawMessage `json:"entries"`
		}
		if body != nil && json.Unmarshal(body, &pv) != nil {
			pv.Entries = nil
		}
		op := tr.op.Load()
		tr.mu.Lock()
		defer tr.mu.Unlock()
		tr.keep(span{track: "coordinator->" + worker, name: "dist." + rt, cat: "dist", start: t0, end: t1, id: id, parent: op, op: op, count: 1})
		n := &tr.st.net
		if err != nil || resp.StatusCode >= 400 {
			n.failures++
		}
		switch rt {
		case "submit":
			n.dispatches++
		case "partial":
			n.polls++
			n.pollBytes += int64(len(body))
			n.entries += int64(len(pv.Entries))
			tr.st.pollRTT = append(tr.st.pollRTT, (t1 - t0).Seconds())
		}
		tr.st.rttBusy += t1 - t0
		return resp, err
	})
}

// noteMerge adds one op's coordinator counter deltas; a nil tracer
// ignores them.
func (tr *tracer) noteMerge(merged, stolen, hedges int64) {
	if tr == nil {
		return
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	tr.st.net.merged += merged
	tr.st.net.stolen += stolen
	tr.st.net.hedges += hedges
}

type roundTripper func(*http.Request) (*http.Response, error)

func (f roundTripper) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// --- report ---------------------------------------------------------------

// layerMetrics prints the per-layer table and returns every per-layer
// metric of BENCHMARK.json; layers a workload does not run read 0.
func (tr *tracer) layerMetrics(base, traced phase, out io.Writer) map[string]metric {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	m := map[string]metric{}
	put := func(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }
	sec := func(d time.Duration) float64 { return d.Seconds() }
	e, st := tr.st.eng, &tr.st
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	backend := e.dur[phScore] + e.dur[phImprove] + e.dur[phHostOps]
	mh := e.dur[phPropose] + e.dur[phTargets] + e.dur[phIntegrate] + e.dur[phSeed]
	put("forcefield.ns_per_eval", ratio(float64(e.kernel.Nanoseconds()), float64(e.kernelEvals)), "ns")
	put("core.backend.evals", float64(e.evals), "count")
	put("core.backend.score_s", sec(e.dur[phScore]), "s")
	put("core.backend.improve_s", sec(e.dur[phImprove]), "s")
	put("core.backend.hostops_s", sec(e.dur[phHostOps]), "s")
	put("metaheuristic.propose_s", sec(e.dur[phPropose]), "s")
	put("metaheuristic.targets_s", sec(e.dur[phTargets]), "s")
	put("metaheuristic.integrate_s", sec(e.dur[phIntegrate]), "s")
	put("metaheuristic.seed_s", sec(e.dur[phSeed]), "s")
	put("core.run_s", sec(e.run), "s")
	put("core.engine_self_s", sec(e.run-backend-mh), "s")
	put("core.generations", float64(e.gens), "count")
	put("core.ns_per_generation", ratio(float64(e.run.Nanoseconds()), float64(e.gens)), "ns")
	put("sched.pool_s", sec(e.pool), "s")

	ligands := float64(st.net.merged)
	put("service.submit_s.p50", median(st.svcLat["submit"]), "s")
	put("service.partial_s.p50", median(st.svcLat["partial"]), "s")
	put("service.partial_s.p90", quantile(st.svcLat["partial"], 0.9), "s")
	put("service.partial_calls", float64(len(st.svcLat["partial"])), "count")
	put("service.checkpoint_bytes", float64(st.workerFS.ckptBytes), "bytes")
	put("service.checkpoint_bytes_per_ligand", ratio(float64(st.workerFS.ckptBytes), ligands), "bytes")
	put("service.renames", float64(st.workerFS.renames), "count")
	put("service.wal_bytes", float64(st.workerFS.walBytes), "bytes")
	put("service.fsyncs", float64(st.workerFS.fsyncs), "count")
	put("service.fsync_s", sec(st.workerFS.fsync), "s")
	put("dist.dispatches", float64(st.net.dispatches), "count")
	put("dist.polls", float64(st.net.polls), "count")
	put("dist.poll_rtt_s.p50", median(st.pollRTT), "s")
	put("dist.poll_rtt_s.p90", quantile(st.pollRTT, 0.9), "s")
	put("dist.poll_bytes", float64(st.net.pollBytes), "bytes")
	put("dist.request_failures", float64(st.net.failures), "count")
	put("dist.poll_fresh_ratio", ratio(ligands, float64(st.net.entries)), "ratio")
	put("dist.wal_bytes", float64(st.coordFS.walBytes), "bytes")
	put("dist.fsyncs", float64(st.coordFS.fsyncs), "count")
	put("dist.shards_stolen", float64(st.net.stolen), "count")
	put("dist.hedges", float64(st.net.hedges), "count")

	// Self time per layer, in thread-seconds: a layer's time minus the
	// part of it its child layers' spans cover.
	self := []struct {
		layer string
		d     time.Duration
		what  string
	}{
		{"forcefield", e.kernel, "ScoreBatch+ImproveBatch on host backends"},
		{"metaheuristic", mh, "Seed/Begin/Propose/ImproveTargets/Integrate"},
		{"core", e.run - e.kernel - e.pool - mh, "engine run minus the layers above and below it"},
		{"sched", e.pool, "every call on a PoolBackend (sched + cudasim)"},
		{"service", st.svcBusy + st.workerFS.busy, "worker handlers + checkpoint/journal I/O"},
		{"dist", st.rttBusy - st.svcBusy + st.coordFS.busy, "round trips minus worker handlers + journal I/O"},
	}
	var total time.Duration
	for _, s := range self {
		total += s.d
	}
	fmt.Fprintf(out, "  %-14s %12s %7s  %s\n", "layer", "self_s", "share", "measured as")
	for _, s := range self {
		put("self_s."+s.layer, sec(s.d), "s")
		fmt.Fprintf(out, "  %-14s %12.6f %6.1f%%  %s\n", s.layer, sec(s.d), 100*ratio(sec(s.d), sec(total)), s.what)
	}

	bp, tp := median(base.latencies), median(traced.latencies)
	put("trace.overhead_s", tp-bp, "s")
	put("trace.overhead_pct", 100*ratio(tp-bp, bp), "%")
	put("trace.spans", float64(len(st.spans)+st.lost), "count")
	fmt.Fprintf(out, "  op p50: untraced %.6f s (n=%d), traced %.6f s (n=%d), overhead %+.2f%%\n",
		bp, len(base.latencies), tp, len(traced.latencies), 100*ratio(tp-bp, bp))
	fmt.Fprintf(out, "  outputs: %d untraced and %d traced ops checked against the same warm-up reference, %d failed\n",
		base.attempted, traced.attempted, base.failed+traced.failed)
	for _, name := range sortedKeys(m) {
		fmt.Fprintf(out, "  %-36s %16.6g %s\n", name, m[name].Value, m[name].Unit)
	}
	return m
}

func sortedKeys(m map[string]metric) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
