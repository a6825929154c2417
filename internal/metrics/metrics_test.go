package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"testing"
)

type snap struct{ depth int }

func exposition(t *testing.T, r *Registry[snap], s snap) string {
	t.Helper()
	var b strings.Builder
	if err := r.WriteTo(&b, s); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestHistogramBucketEdges pins the bucket rule: a value equal to an upper
// bound counts in that bucket, and +Inf and NaN fall past every bound into
// the overflow bucket.
func TestHistogramBucketEdges(t *testing.T) {
	r := new(Registry[snap])
	h := r.Histogram("h_seconds", "Edges.", []float64{0.5, 1})
	for _, v := range []float64{0.5, 1, math.Inf(1), math.NaN()} {
		h.Observe(v)
	}
	h.mu.Lock()
	got := append([]int64(nil), h.counts...)
	h.mu.Unlock()
	if want := []int64{1, 1, 2}; !slices.Equal(got, want) {
		t.Fatalf("bucket counts %v, want %v", got, want)
	}
	out := exposition(t, r, snap{})
	for _, line := range []string{
		`h_seconds_bucket{le="0.5"} 1`,
		`h_seconds_bucket{le="1"} 2`,
		`h_seconds_bucket{le="+Inf"} 4`,
		`h_seconds_count 4`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// TestLabelOrder checks both label modes: a fixed set writes every value
// in the given order with zeros and ignores others; a dynamic set writes
// what was counted, sorted.
func TestLabelOrder(t *testing.T) {
	r := new(Registry[snap])
	fixed := r.CounterVec("fixed_total", "Fixed.", "state", "zeta", "alpha", "mid")
	dynamic := r.CounterVec("dynamic_total", "Dynamic.", "op")
	r.GaugeVec("g", "Gauge vec.", "class", []string{"b", "a"}, func(s snap, class string) int {
		if class == "a" {
			return s.depth
		}
		return 0
	})
	hv := r.HistogramVec("hv_seconds", "Histogram vec.", "class", []string{"b", "a"}, []float64{1})
	fixed.Inc("alpha")
	fixed.Inc("unlisted")
	dynamic.Inc("sync")
	dynamic.Inc("dirsync")
	dynamic.Inc("sync")
	hv.Observe("a", 0.5)
	hv.Observe("unlisted", 0.5)

	want := `# HELP fixed_total Fixed.
# TYPE fixed_total counter
fixed_total{state="zeta"} 0
fixed_total{state="alpha"} 1
fixed_total{state="mid"} 0
# HELP dynamic_total Dynamic.
# TYPE dynamic_total counter
dynamic_total{op="dirsync"} 1
dynamic_total{op="sync"} 2
# HELP g Gauge vec.
# TYPE g gauge
g{class="b"} 0
g{class="a"} 7
# HELP hv_seconds Histogram vec.
# TYPE hv_seconds histogram
hv_seconds_bucket{class="b",le="1"} 0
hv_seconds_bucket{class="b",le="+Inf"} 0
hv_seconds_sum{class="b"} 0
hv_seconds_count{class="b"} 0
hv_seconds_bucket{class="a",le="1"} 1
hv_seconds_bucket{class="a",le="+Inf"} 1
hv_seconds_sum{class="a"} 0.5
hv_seconds_count{class="a"} 1
`
	if got := exposition(t, r, snap{depth: 7}); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
	if n := fixed.Values()["unlisted"]; n != 1 {
		t.Errorf("unlisted label count %d, want 1 (kept, just not written)", n)
	}
}

// TestIntegerRendering keeps counters and gauges in %d form at any size:
// scrapers parse them with strconv.ParseInt, which rejects 1e+06.
func TestIntegerRendering(t *testing.T) {
	r := new(Registry[snap])
	c := r.Counter("c_total", "Counter.")
	f := r.FloatCounter("f_total", "Float counter.")
	r.Gauge("g", "Gauge.", func(s snap) int { return s.depth })
	c.Add(1_000_000)
	f.Add(12.5)
	f.Add(2.5)
	out := exposition(t, r, snap{depth: 2_000_000})
	for _, line := range []string{"c_total 1000000", "f_total 15", "g 2000000"} {
		if !strings.Contains(out, "\n"+line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}

// failAfter accepts n writes, then fails every later one with its own
// numbered error, so the test can tell which error WriteTo returned.
type failAfter struct{ n, calls int }

func (w *failAfter) Write(p []byte) (int, error) {
	w.calls++
	if w.calls > w.n {
		return 0, fmt.Errorf("write %d", w.calls)
	}
	return len(p), nil
}

// TestWriteToReturnsFirstError fails the second of several underlying
// writes: WriteTo must report that failure and attempt nothing after it.
func TestWriteToReturnsFirstError(t *testing.T) {
	r := new(Registry[snap])
	for i := 0; i < 500; i++ {
		r.Counter(fmt.Sprintf("c%d_total", i), "A counter with a help string long enough to span buffers.")
	}
	w := &failAfter{n: 1}
	err := r.WriteTo(w, snap{})
	if err == nil || err.Error() != "write 2" {
		t.Fatalf("WriteTo error %v, want the first failure (write 2)", err)
	}
	if w.calls != 2 {
		t.Errorf("%d writes attempted, want none after the first failure", w.calls)
	}
}

// TestConcurrentUpdatesAndScrape runs updates against scrapes; run it under
// -race. The final exposition must hold every update.
func TestConcurrentUpdatesAndScrape(t *testing.T) {
	r := new(Registry[snap])
	c := r.Counter("c_total", "Counter.")
	f := r.FloatCounter("f_total", "Float counter.")
	v := r.CounterVec("v_total", "Vec.", "op")
	h := r.Histogram("h_seconds", "Histogram.", []float64{1})
	hv := r.HistogramVec("hv_seconds", "Histogram vec.", "class", []string{"x"}, []float64{1})

	const workers, iters = 4, 500
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < iters; j++ {
				c.Inc()
				f.Add(1)
				v.Inc("op")
				h.Observe(0.5)
				hv.Observe("x", 2)
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < iters/10; j++ {
				var b strings.Builder
				if err := r.WriteTo(&b, snap{}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	out := exposition(t, r, snap{})
	for _, line := range []string{
		"c_total 2000",
		"f_total 2000",
		`v_total{op="op"} 2000`,
		"h_seconds_count 2000",
		`hv_seconds_bucket{class="x",le="1"} 0`,
		`hv_seconds_count{class="x"} 2000`,
	} {
		if !strings.Contains(out, line+"\n") {
			t.Errorf("missing %q in:\n%s", line, out)
		}
	}
}
