package main

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"time"

	"github.com/metascreen/metascreen/internal/core"
	"github.com/metascreen/metascreen/internal/cudasim"
	"github.com/metascreen/metascreen/internal/forcefield"
	"github.com/metascreen/metascreen/internal/metaheuristic"
	"github.com/metascreen/metascreen/internal/sched"
	"github.com/metascreen/metascreen/internal/tables"
)

// tables-modeled: the reproduction itself, all 16 rows of the paper's
// Tables 6-9 through tables.RunRow with the modeled backends, at the
// scale the repository's table benchmarks use. Bound by engine
// bookkeeping (metaheuristic host phases, population copies), not by
// the surrogate kernel.
const tablesScale = 0.5

type rowSpec struct {
	exp tables.Experiment
	mh  string
}

type tablesBench struct {
	seed uint64
	rows []rowSpec
	// spots counts each dataset's receptor spots. Set-up builds each
	// dataset's problem once to validate the inputs; every op rebuilds
	// its own, as RunRow does.
	spots map[string]int
	want  []tables.Row // warm-up op, one per row
}

func setupTables(cfg config) (bench, error) {
	t := &tablesBench{seed: cfg.seed, spots: map[string]int{}}
	for _, exp := range tables.Experiments() {
		if _, ok := t.spots[exp.Dataset]; !ok {
			ds, err := core.DatasetByName(exp.Dataset)
			if err != nil {
				return nil, err
			}
			p, err := core.NewProblemFromDataset(ds, forcefield.Options{})
			if err != nil {
				return nil, err
			}
			t.spots[exp.Dataset] = len(p.Spots)
		}
		for _, mh := range metaheuristic.PaperNames() {
			t.rows = append(t.rows, rowSpec{exp: exp, mh: mh})
		}
	}
	return t, nil
}

func (t *tablesBench) describe() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d rows of Tables 6-9 (M1-M4 x Jupiter/Hertz x 2BSM/2BXG, %d/%d spots), modeled scoring, scale %g, single-threaded engine; warm-up rows:",
		len(t.rows), t.spots["2BSM"], t.spots["2BXG"], tablesScale)
	for i, r := range t.rows {
		line, _ := json.Marshal(valueOf(r.exp.Number, t.want[i]))
		fmt.Fprintf(&b, "\n    %s", line)
	}
	return b.String()
}

func (t *tablesBench) config() tables.Config {
	return tables.Config{Scale: tablesScale, Seed: t.seed}
}

func (t *tablesBench) warm() error {
	t.want = nil
	for _, r := range t.rows {
		row, err := tables.RunRow(r.exp, r.mh, t.config())
		if err != nil {
			return err
		}
		t.want = append(t.want, row)
	}
	return nil
}

// op regenerates all 16 rows, in table order, and checks each one; its
// latency is the rows' summed wall time.
func (t *tablesBench) op(tr *tracer) (int, time.Duration, error) {
	var busy time.Duration
	for i, r := range t.rows {
		var (
			row tables.Row
			err error
		)
		t0 := time.Now()
		if tr == nil {
			row, err = tables.RunRow(r.exp, r.mh, t.config())
		} else {
			tr.beginOp(fmt.Sprintf("table %d %s", r.exp.Number, r.mh))
			row, err = t.tracedRow(r, tr)
			tr.endOp()
		}
		busy += time.Since(t0)
		if err != nil {
			return 0, 0, err
		}
		if !sameRow(row, t.want[i]) {
			return 0, 0, fmt.Errorf("table %d %s: %+v, warm-up %+v: %w", r.exp.Number, r.mh, row, t.want[i], errMismatch)
		}
		if t.seed == defaultSeed {
			if err := reference.checkRow(r.exp.Number, row); err != nil {
				return 0, 0, err
			}
		}
	}
	return len(t.rows), busy, nil
}

func (t *tablesBench) withTracer(*tracer) (bench, error) { return t, nil }

func (t *tablesBench) close() error { return nil }

// sameRow compares every field bit for bit (NaN equals NaN: Hertz has no
// homogeneous-system column).
func sameRow(a, b tables.Row) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	return a.Metaheuristic == b.Metaheuristic && same(a.OpenMP, b.OpenMP) &&
		same(a.HomogeneousSystem, b.HomogeneousSystem) && same(a.HetHomogComputation, b.HetHomogComputation) &&
		same(a.HetHetComputation, b.HetHetComputation) && same(a.EnergyOpenMP, b.EnergyOpenMP) &&
		same(a.EnergyHetHet, b.EnergyHetHet)
}

// tracedRow is tables.RunRow rebuilt from the exported constructors so the
// four runs' backends and metaheuristics can be wrapped: the same problem,
// configurations, seed and order as RunRow. The op check compares its row
// with RunRow's bit for bit, so a drift between the two fails loudly.
func (t *tablesBench) tracedRow(r rowSpec, tr *tracer) (tables.Row, error) {
	cfg := t.config()
	if cfg.Seed == 0 {
		cfg.Seed = 2016 // tables.Config's documented default
	}
	m := r.exp.Machine
	row := tables.Row{Metaheuristic: r.mh, HomogeneousSystem: math.NaN()}
	ds, err := core.DatasetByName(r.exp.Dataset)
	if err != nil {
		return row, err
	}
	problem, err := core.NewProblemFromDataset(ds, forcefield.Options{})
	if err != nil {
		return row, err
	}
	runOne := func(name string, b core.Backend, pool bool) (*core.Result, error) {
		alg, err := metaheuristic.NewPaper(r.mh, cfg.Scale)
		if err != nil {
			return nil, err
		}
		rt := tr.newRun(name, "engine", pool)
		t0 := time.Now()
		res, err := core.Run(problem, tr.algorithm(alg, rt), rt.wrap(b), cfg.Seed)
		rt.run = time.Since(t0)
		if res != nil {
			rt.gens = res.Generations
		}
		return res, err
	}
	pool := func(gpus []cudasim.DeviceSpec, mode sched.Mode) (*core.PoolBackend, error) {
		return core.NewPoolBackend(problem, core.PoolConfig{Specs: gpus, Mode: mode, WarpsPerBlock: 8, Seed: cfg.Seed})
	}

	hb, err := core.NewHostBackend(problem, core.HostConfig{ModelCores: m.CPUCores, ModelClockMHz: m.CPUClockMHz})
	if err != nil {
		return row, err
	}
	res, err := runOne("run openmp", hb, false)
	if err != nil {
		return row, err
	}
	row.OpenMP, row.EnergyOpenMP = res.SimulatedSeconds, res.EnergyJoules

	if subset := m.HomogeneousGPUs(); len(subset) > 0 {
		pb, err := pool(subset, sched.Homogeneous)
		if err != nil {
			return row, err
		}
		if res, err = runOne("run homogeneous system", pb, true); err != nil {
			return row, err
		}
		row.HomogeneousSystem = res.SimulatedSeconds
	}

	pb, err := pool(m.GPUs, sched.Homogeneous)
	if err != nil {
		return row, err
	}
	if res, err = runOne("run het/homog computation", pb, true); err != nil {
		return row, err
	}
	row.HetHomogComputation = res.SimulatedSeconds

	pb, err = pool(m.GPUs, sched.Heterogeneous)
	if err != nil {
		return row, err
	}
	if res, err = runOne("run het/het computation", pb, true); err != nil {
		return row, err
	}
	row.HetHetComputation, row.EnergyHetHet = res.SimulatedSeconds, res.EnergyJoules
	return row, nil
}
