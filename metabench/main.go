// Command metabench is metascreen's benchmark. One closed-loop client
// drives one workload for a fixed time, checks every output, and prints
// each metric by name and unit followed by a one-line JSON result:
//
//	bash metabench/run.sh --workload screen-real --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the JSON carries the end-to-end metrics; with --trace 1
// the run is split into an untraced and a traced half, and the JSON
// carries the per-layer metrics, the tracing overhead, and a Chrome trace
// is written under .bench_build/. README.md documents the workloads, the
// metrics and which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

// defaultSeed is the seed the committed reference outputs were recorded
// at; other seeds fall back to invariant checks.
const defaultSeed = 1

// outDir holds everything a run writes (journals, traces), relative to
// the repository root the benchmark runs from.
const outDir = ".bench_build"

// A run builds its inputs and boots its services at least minSetups
// times, and keeps going up to maxSetups while the set-ups together took
// less than setupBudget seconds; setup_s is the median, so one slow boot
// does not move it and millisecond set-ups get enough samples.
const (
	minSetups   = 3
	maxSetups   = 25
	setupBudget = 0.5
)

// rssOps is how many leading ops rss_peak_mb is taken over. The cluster's
// nodes keep their finished jobs, so later ops peak higher; a fixed count
// keeps a faster program from reading as a bigger one.
const rssOps = 5

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

// bench is one booted workload instance.
type bench interface {
	// warm runs one untimed op and records the reference outputs the
	// timed ops are checked against.
	warm() error
	// op runs one closed-loop op, returning the work items it completed
	// and its latency. The output check runs after the latency is taken;
	// a failed check returns an error.
	op(tr *tracer) (items int, latency time.Duration, err error)
	// withTracer returns a bench whose layers report to tr: the receiver
	// when wrappers are applied per op, a freshly booted and warmed
	// instance when they must be installed at boot.
	withTracer(tr *tracer) (bench, error)
	// describe is the one-line summary of the workload's inputs.
	describe() string
	// close stops everything the bench started and waits for it.
	close() error
}

type workload struct {
	name  string
	item  string // what items_per_s counts
	op    string // what one op is, naming op_s.p50
	setup func(cfg config) (bench, error)
}

var workloads = []workload{
	{name: "screen-real", item: "ligands", op: "screen", setup: setupScreen},
	{name: "tables-modeled", item: "rows", op: "tables", setup: setupTables},
	{name: "cluster-durable", item: "ligands", op: "screen", setup: setupCluster},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	cfg, err := parseFlags(args)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metabench:", err)
		return 2
	}
	res, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metabench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "metabench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("metabench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", defaultSeed, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds per run (whole ops)")
	traced := fs.Int("trace", 0, "1 = report per-layer metrics from a traced half-run")
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	if !slices.Contains(names, *name) {
		return config{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *seconds <= 0 {
		return config{}, fmt.Errorf("--seconds %g must be positive", *seconds)
	}
	if *traced != 0 && *traced != 1 {
		return config{}, fmt.Errorf("--trace %d must be 0 or 1", *traced)
	}
	return config{workload: *name, seed: *seed, seconds: *seconds, trace: *traced == 1}, nil
}

// metric is one named value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed closed-loop stretch; the slices hold one value per
// successful op.
type phase struct {
	latencies []float64 // seconds
	rates     []float64 // items per second
	rss       []float64 // peak resident MB during the op
	attempted int
	failed    int
	errs      []error
}

// measure runs whole ops until at least seconds have elapsed.
func measure(b bench, seconds float64, tr *tracer) phase {
	var ph phase
	for start := time.Now(); ph.attempted == 0 || time.Since(start).Seconds() < seconds; {
		// Each op starts from a collected heap, so no op pays for the
		// garbage of the one before it and the memory peak does not
		// depend on where the previous op left the GC cycle.
		runtime.GC()
		_ = resetPeakRSS() // execute reported whether resetting works
		n, lat, err := b.op(tr)
		ph.attempted++
		if err != nil {
			ph.failed++
			ph.errs = append(ph.errs, err)
			continue
		}
		ph.latencies = append(ph.latencies, lat.Seconds())
		ph.rates = append(ph.rates, float64(n)/lat.Seconds())
		ph.rss = append(ph.rss, rssPeakMB())
	}
	return ph
}

func (ph phase) report(w io.Writer, label string) {
	for i, err := range ph.errs {
		if i == 5 {
			fmt.Fprintf(w, "  ... %d more failed ops\n", len(ph.errs)-i)
			break
		}
		fmt.Fprintf(w, "  FAILED op (%s): %v\n", label, err)
	}
}

func execute(cfg config, out io.Writer) (*result, error) {
	var w workload
	for _, c := range workloads {
		if c.name == cfg.workload {
			w = c
		}
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	var (
		b      bench
		setups []float64
	)
	for total := 0.0; len(setups) < minSetups || (len(setups) < maxSetups && total < setupBudget); {
		if b != nil {
			if err := b.close(); err != nil {
				return nil, err
			}
		}
		t0 := time.Now()
		nb, err := w.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
		b = nb
	}
	defer func() { b.close() }()
	if err := b.warm(); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	fmt.Fprintf(out, "workload %s, seed %d: %s\n", w.name, cfg.seed, b.describe())
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "metabench: cannot reset the peak RSS; rss_peak_mb includes set-up and warm-up:", err)
	}

	if !cfg.trace {
		ph := measure(b, cfg.seconds, nil)
		ph.report(out, "untraced")
		res := &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
		put := func(name string, v float64, unit, note string) {
			res.Metrics[name] = metric{Value: v, Unit: unit}
			fmt.Fprintf(out, "  %-16s %14.6g %-6s %s\n", name, v, unit, note)
		}
		put("items_per_s", median(ph.rates), "1/s",
			fmt.Sprintf("%s_per_s: median over n=%d ops", w.item, len(ph.rates)))
		put("op_s.p50", median(ph.latencies), "s",
			fmt.Sprintf("%s_s.p50 over n=%d ops", w.op, len(ph.latencies)))
		put("setup_s", median(setups), "s", fmt.Sprintf("median of %d set-ups", len(setups)))
		put("rss_peak_mb", lowest(ph.rss[:min(rssOps, len(ph.rss))]), "MB",
			fmt.Sprintf("peak resident memory of the process during an op: lowest of the first %d ops", min(rssOps, len(ph.rss))))
		fmt.Fprintf(out, "  op latency s: min %.4f  q1 %.4f  median %.4f  q3 %.4f  max %.4f\n",
			quantile(ph.latencies, 0), quantile(ph.latencies, 0.25), median(ph.latencies),
			quantile(ph.latencies, 0.75), quantile(ph.latencies, 1))
		fmt.Fprintf(out, "  ops: %d attempted, %d failed output checks or errors\n", ph.attempted, ph.failed)
		return res, nil
	}

	// Traced run: the untraced half gives the baseline the overhead is
	// measured against; the traced half gives every per-layer number.
	base := measure(b, cfg.seconds/2, nil)
	base.report(out, "untraced")
	tr := newTracer()
	tb, err := b.withTracer(tr)
	if err != nil {
		return nil, fmt.Errorf("traced boot: %w", err)
	}
	if tb != b {
		old := b
		b = tb // the deferred close now stops the traced instance
		if err := old.close(); err != nil {
			return nil, err
		}
	}
	tr.reset() // drop what a freshly booted instance's warm-up op recorded
	traced := measure(b, cfg.seconds/2, tr)
	traced.report(out, "traced")
	path := fmt.Sprintf("%s/trace-%s-seed%d.json", outDir, w.name, cfg.seed)
	if err := tr.writeChrome(path); err != nil {
		return nil, err
	}
	metrics := tr.layerMetrics(base, traced, out)
	fmt.Fprintf(out, "  chrome trace: %s (%d spans, %d dropped; open in Perfetto)\n", path, tr.kept(), tr.dropped())
	failed := base.failed + traced.failed
	return &result{
		Correct:   failed == 0,
		Attempted: base.attempted + traced.attempted,
		Failed:    failed,
		Metrics:   metrics,
	}, nil
}

// median returns the middle value (mean of the two middle values for an
// even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lowest returns the smallest value, or 0 for no samples. An op's memory
// peak exceeds what the op needs by the garbage the GC had not collected
// yet at that moment; that excess is one-sided, so across ops the lowest
// peak is the steady estimate.
func lowest(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return slices.Min(xs)
}

// quantile returns the nearest-rank q-quantile, or 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	sort.Float64s(s)
	i := int(q*float64(len(s))+0.5) - 1
	return s[max(0, min(i, len(s)-1))]
}

// resetPeakRSS restarts the kernel's resident-set high-water mark, so
// rssPeakMB covers one op and not set-up, warm-up or earlier ops.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// rssPeakMB is the process's resident-set high-water mark (VmHWM).
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmHWM:" {
			kb, _ := strconv.ParseFloat(f[1], 64)
			return kb / 1024
		}
	}
	return 0
}

var errMismatch = errors.New("output differs from reference")
