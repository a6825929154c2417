// Package metrics is metascreen's one Prometheus registry. Every role
// (node, worker, coordinator) registers its metric families on a Registry
// and serves /metrics from Registry.WriteTo, so the text exposition
// format, value rendering and family order are decided here and nowhere
// else.
package metrics

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
)

// Registry is an ordered list of metric families. S is the scrape-time
// snapshot that gauges read; counters and histograms carry their own
// state. Register every family before the first WriteTo: registration is
// not safe for concurrent use, while updates and WriteTo are.
type Registry[S any] struct {
	families []family[S]
}

type family[S any] struct {
	name, help, kind string
	write            func(w io.Writer, s S)
}

func (r *Registry[S]) add(name, help, kind string, write func(io.Writer, S)) {
	r.families = append(r.families, family[S]{name: name, help: help, kind: kind, write: write})
}

// WriteTo writes every family in registration order, in Prometheus text
// exposition format, with gauges read from s. It returns the first write
// error: the buffered writer keeps it and turns every later write into a
// no-op.
func (r *Registry[S]) WriteTo(w io.Writer, s S) error {
	bw := bufio.NewWriter(w)
	for _, f := range r.families {
		fmt.Fprintf(bw, "# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind)
		f.write(bw, s)
	}
	return bw.Flush()
}

// Counter is a cumulative integer, rendered with %d so scrapers can parse
// it as an integer at any size.
type Counter struct{ v atomic.Int64 }

func (c *Counter) Inc()         { c.v.Add(1) }
func (c *Counter) Add(n int64)  { c.v.Add(n) }
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter registers an integer counter family.
func (r *Registry[S]) Counter(name, help string) *Counter {
	c := new(Counter)
	r.add(name, help, "counter", func(w io.Writer, _ S) { fmt.Fprintf(w, "%s %d\n", name, c.Value()) })
	return c
}

// FloatCounter is a cumulative float, rendered in the shortest form that
// round-trips.
type FloatCounter struct{ bits atomic.Uint64 }

func (c *FloatCounter) Add(v float64) {
	for {
		old := c.bits.Load()
		if c.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (c *FloatCounter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// FloatCounter registers a float counter family.
func (r *Registry[S]) FloatCounter(name, help string) *FloatCounter {
	c := new(FloatCounter)
	r.add(name, help, "counter", func(w io.Writer, _ S) { fmt.Fprintf(w, "%s %s\n", name, formatFloat(c.Value())) })
	return c
}

// CounterVec is an integer counter family split by one label.
type CounterVec struct {
	mu sync.Mutex
	m  map[string]int64
}

func (v *CounterVec) Inc(label string) {
	v.mu.Lock()
	v.m[label]++
	v.mu.Unlock()
}

// Values copies the counts by label value.
func (v *CounterVec) Values() map[string]int64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	out := make(map[string]int64, len(v.m))
	for k, n := range v.m {
		out[k] = n
	}
	return out
}

// CounterVec registers a counter family with one label. Given a fixed
// label set, it writes exactly those series in that order, zeros
// included; counts under other labels are kept but not written. Given
// none, it writes every label counted so far, sorted.
func (r *Registry[S]) CounterVec(name, help, label string, values ...string) *CounterVec {
	v := &CounterVec{m: make(map[string]int64)}
	r.add(name, help, "counter", func(w io.Writer, _ S) {
		counts, keys := v.Values(), values
		if keys == nil {
			for k := range counts {
				keys = append(keys, k)
			}
			sort.Strings(keys)
		}
		for _, k := range keys {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, k, counts[k])
		}
	})
	return v
}

// Gauge registers a gauge family read from the scrape-time snapshot.
func (r *Registry[S]) Gauge(name, help string, value func(S) int) {
	r.add(name, help, "gauge", func(w io.Writer, s S) { fmt.Fprintf(w, "%s %d\n", name, value(s)) })
}

// GaugeVec registers a one-label gauge family read from the scrape-time
// snapshot, one series per label value in the given order.
func (r *Registry[S]) GaugeVec(name, help, label string, values []string, value func(S, string) int) {
	r.add(name, help, "gauge", func(w io.Writer, s S) {
		for _, v := range values {
			fmt.Fprintf(w, "%s{%s=%q} %d\n", name, label, v, value(s, v))
		}
	})
}

// Histogram is one fixed-bucket histogram: cumulative bucket counts are
// derived at write time, so Observe is O(buckets) with no allocation.
type Histogram struct {
	buckets []float64 // upper bounds; +Inf implicit

	mu     sync.Mutex
	counts []int64 // one per bucket plus the +Inf overflow
	sum    float64
	count  int64
}

func newHistogram(buckets []float64) *Histogram {
	return &Histogram{buckets: buckets, counts: make([]int64, len(buckets)+1)}
}

// Observe records one value. A value equal to a bound lands in that
// bound's bucket; +Inf and NaN land in the overflow bucket.
func (h *Histogram) Observe(v float64) {
	i := 0
	for ; i < len(h.buckets); i++ {
		if v <= h.buckets[i] {
			break
		}
	}
	h.mu.Lock()
	h.counts[i]++
	h.sum += v
	h.count++
	h.mu.Unlock()
}

// write emits the histogram's series under name; lbl, when set, is one
// extra `key="value"` label carried by every series.
func (h *Histogram) write(w io.Writer, name, lbl string) {
	h.mu.Lock()
	counts := append([]int64(nil), h.counts...)
	sum, count := h.sum, h.count
	h.mu.Unlock()

	bucketLbl, seriesLbl := "", ""
	if lbl != "" {
		bucketLbl, seriesLbl = lbl+",", "{"+lbl+"}"
	}
	cum := int64(0)
	for i, le := range h.buckets {
		cum += counts[i]
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, bucketLbl, formatFloat(le), cum)
	}
	cum += counts[len(h.buckets)]
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, bucketLbl, cum)
	fmt.Fprintf(w, "%s_sum%s %s\n", name, seriesLbl, formatFloat(sum))
	fmt.Fprintf(w, "%s_count%s %d\n", name, seriesLbl, count)
}

// Histogram registers a histogram family with the given bucket upper
// bounds.
func (r *Registry[S]) Histogram(name, help string, buckets []float64) *Histogram {
	h := newHistogram(buckets)
	r.add(name, help, "histogram", func(w io.Writer, _ S) { h.write(w, name, "") })
	return h
}

// HistogramVec is a histogram family split by one label over a fixed set
// of label values.
type HistogramVec struct{ hs map[string]*Histogram }

// Observe records v under the given label value; values outside the
// registered set are dropped.
func (v *HistogramVec) Observe(label string, x float64) {
	if h, ok := v.hs[label]; ok {
		h.Observe(x)
	}
}

// HistogramVec registers a one-label histogram family, written one label
// value at a time in the given order.
func (r *Registry[S]) HistogramVec(name, help, label string, values []string, buckets []float64) *HistogramVec {
	v := &HistogramVec{hs: make(map[string]*Histogram, len(values))}
	for _, l := range values {
		v.hs[l] = newHistogram(buckets)
	}
	r.add(name, help, "histogram", func(w io.Writer, _ S) {
		for _, l := range values {
			v.hs[l].write(w, name, fmt.Sprintf("%s=%q", label, l))
		}
	})
	return v
}

// Labels converts string-typed values, such as job states, to label
// values.
func Labels[L ~string](ls []L) []string {
	out := make([]string, len(ls))
	for i, l := range ls {
		out[i] = string(l)
	}
	return out
}

// formatFloat renders a float the way Prometheus clients expect.
func formatFloat(v float64) string {
	if math.IsInf(v, +1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}
