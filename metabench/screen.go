package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"slices"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/molecule"
	"github.com/metascreen/metascreen/internal/surface"
)

// screen-real: the library screen a user runs in-process, with real
// force-field scoring. Kernel-bound; no service, journal or coordinator
// code runs.
const (
	screenLibrary     = 48
	screenSpots       = 4
	screenMH          = "M3"
	screenScale       = 0.1
	screenHostThreads = 1 // core.HostConfig.Workers per ligand job
	// screenJobs is the number of concurrent ligand jobs (ScreenCtx
	// workers) of a timed screen. One leaves a CPU of a 2-CPU machine for
	// the Go runtime and everything else running: with both CPUs busy, the
	// run-to-run spread of screen time doubled (see README.md).
	screenJobs = 1
	// screenWarmJobs differs from screenJobs, so checking every timed
	// screen against the warm-up also proves that the ranking does not
	// depend on the worker count.
	screenWarmJobs = 2
)

type screenBench struct {
	seed     uint64
	receptor *molecule.Molecule
	library  []*molecule.Molecule
	// want and wantRanking are the full and the ranking digest of the
	// warm-up screen; every timed screen must reproduce them exactly.
	want        string
	wantRanking string
}

func setupScreen(cfg config) (bench, error) {
	ds := core.Dataset2BSM()
	lib := core.SyntheticLibrary(screenLibrary)
	for _, m := range append([]*molecule.Molecule{ds.Receptor}, lib...) {
		if err := m.Validate(); err != nil {
			return nil, err
		}
	}
	if _, err := metaheuristic.NewPaper(screenMH, screenScale); err != nil {
		return nil, err
	}
	return &screenBench{seed: cfg.seed, receptor: ds.Receptor, library: lib}, nil
}

func (s *screenBench) describe() string {
	return fmt.Sprintf("2BSM receptor (%d atoms), %d-ligand synthetic library, %s at scale %g, %d spots, real scoring; %d ligand worker(s) x %d host thread (warm-up: %d workers); ranking sha256 %s",
		s.receptor.NumAtoms(), len(s.library), screenMH, screenScale, screenSpots, screenJobs, screenHostThreads, screenWarmJobs, s.wantRanking)
}

func (s *screenBench) screen(tr *tracer, workers int) (*core.ScreenResult, time.Duration, error) {
	algf := func() (metaheuristic.Algorithm, error) {
		a, err := metaheuristic.NewPaper(screenMH, screenScale)
		if err != nil || tr == nil {
			return a, err
		}
		return tr.algorithm(a, nil), nil
	}
	backf := core.HostBackendFactory(core.HostConfig{Real: true, Workers: screenHostThreads})
	if tr != nil {
		backf = tr.backendFactory(backf)
	}
	t0 := time.Now()
	res, err := core.ScreenCtx(context.Background(), s.receptor, s.library,
		surface.Options{MaxSpots: screenSpots}, forcefield.Options{}, algf, backf, s.seed, workers)
	return res, time.Since(t0), err
}

func (s *screenBench) warm() error {
	res, _, err := s.screen(nil, screenWarmJobs)
	if err != nil {
		return err
	}
	s.want, s.wantRanking = fullDigest(res), rankingDigest(res)
	return nil
}

func (s *screenBench) op(tr *tracer) (int, time.Duration, error) {
	tr.beginOp("screen")
	res, lat, err := s.screen(tr, screenJobs)
	if err == nil {
		tr.noteScreen(res)
	}
	tr.endOp()
	if err != nil {
		return 0, 0, err
	}
	if got := fullDigest(res); got != s.want {
		return 0, 0, fmt.Errorf("screen with %d workers: %w (digest %s, %d-worker warm-up %s)", screenJobs, errMismatch, got, screenWarmJobs, s.want)
	}
	if s.seed == defaultSeed {
		if got := rankingDigest(res); got != reference.ScreenRanking {
			return 0, 0, fmt.Errorf("ranking digest %s, committed reference %s: %w", got, reference.ScreenRanking, errMismatch)
		}
	}
	return len(res.Ranking), lat, nil
}

func (s *screenBench) withTracer(*tracer) (bench, error) { return s, nil }

func (s *screenBench) close() error { return nil }

// rankingDigest hashes the ranking's ligand names and exact score bits,
// the part of a screen the committed reference pins.
func rankingDigest(res *core.ScreenResult) string {
	h := sha256.New()
	for _, e := range res.Ranking {
		fmt.Fprintf(h, "%s %016x\n", e.Ligand.Name, math.Float64bits(e.Result.Best.Score))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// fullDigest hashes everything a screen reports except wall time: the
// ranking with every run's best pose, convergence history, simulated
// seconds, energy, evaluations, fault counters and warm-up factors. Two
// screens with equal digests are indistinguishable to a user, so it
// proves that neither the worker count nor the tracing wrappers changed
// any result.
func fullDigest(res *core.ScreenResult) string {
	h := sha256.New()
	for _, e := range res.Ranking {
		r := e.Result
		fmt.Fprintf(h, "%s %v %v %v %d %d %v %v %v %v %d %d %d\n",
			e.Ligand.Name, r.Best, r.Spots, r.History, r.Evaluations, r.Generations,
			r.SimulatedSeconds, r.EnergyJoules, r.DeadlineHit, r.Algorithm+"/"+r.Backend,
			r.DeviceFaults, r.SchedRetries, r.Resplits)
		writeFactors(h, r.WarmupFactors)
	}
	fmt.Fprintf(h, "%v %d %d %d %d\n", res.SimulatedSeconds, res.Evaluations, res.DeviceFaults, res.SchedRetries, res.Resplits)
	writeFactors(h, res.WarmupFactors)
	return hex.EncodeToString(h.Sum(nil))
}

func writeFactors(w io.Writer, f map[string][]float64) {
	keys := make([]string, 0, len(f))
	for k := range f {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "%s=%v;", k, f[k])
	}
	fmt.Fprintln(w)
}
