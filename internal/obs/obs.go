// Package obs is the serving stack's observability layer: lock-free
// log-scale latency histograms and gauges on atomics, a named-metric
// registry with a Prometheus text-exposition writer, and a per-request
// Trace span recorder that is a nil-check no-op when disabled.
//
// Histogram.Observe is the hot-path primitive: a single atomic add into
// a fixed power-of-two bucket (plus one atomic add into the running
// sum), with zero allocations — instrumentation stays at block/stage
// granularity, never per-tuple, so the cost is amortized over whole
// compute units. The package-level Default registry is what the engine,
// query executor, and servers register into; cmd/mrslserve exposes it
// on GET /metrics.
package obs

import (
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// numBuckets covers every non-negative int64 nanosecond duration:
// bucket i holds observations v with bits.Len64(v) == i, i.e.
// 2^(i-1) <= v < 2^i (and v == 0 in bucket 0).
const numBuckets = 64

// Histogram is a fixed-bucket log2-scale latency histogram. All methods
// are safe for concurrent use; Observe performs two atomic adds and no
// allocations. The zero value is NOT usable on its own — obtain
// histograms from a Registry so they are exported.
type Histogram struct {
	buckets [numBuckets]atomic.Int64
	sumNS   atomic.Int64
}

// Observe records one duration. Negative durations clamp to zero.
func (h *Histogram) Observe(d time.Duration) {
	n := d.Nanoseconds()
	if n < 0 {
		n = 0
	}
	h.buckets[bits.Len64(uint64(n))].Add(1)
	h.sumNS.Add(n)
}

// Since is shorthand for Observe(time.Since(start)).
func (h *Histogram) Since(start time.Time) { h.Observe(time.Since(start)) }

// Snapshot returns the per-bucket counts, total observation count, and
// sum of observed durations in nanoseconds. Count is derived as the sum
// of the bucket snapshot, so Count always equals the +Inf cumulative
// bucket even while writers race.
func (h *Histogram) Snapshot() (buckets [numBuckets]int64, count, sumNS int64) {
	for i := range h.buckets {
		buckets[i] = h.buckets[i].Load()
		count += buckets[i]
	}
	return buckets, count, h.sumNS.Load()
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 {
	_, c, _ := h.Snapshot()
	return c
}

// Gauge is an int64 gauge/counter on a single atomic.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds delta.
func (g *Gauge) Add(delta int64) { g.v.Add(delta) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// series is one labeled time series under a metric name.
type series struct {
	labels string // rendered label pairs, e.g. `path="/query"`, or ""
	h      *Histogram
	g      *Gauge
}

// group is every series registered under one metric name.
type group struct {
	help    string
	kind    string // "histogram" or "gauge"
	series  []*series
	byLabel map[string]*series
}

// Registry maps metric names (with optional label sets) to their
// instruments and renders them in Prometheus text exposition format.
// Registration is idempotent: asking for an existing name+labels pair
// returns the already-registered instrument.
type Registry struct {
	mu     sync.Mutex
	names  []string // first-registration order, for stable output
	groups map[string]*group
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{groups: make(map[string]*group)}
}

// Default is the process-wide registry the engine and servers use.
var Default = NewRegistry()

func (r *Registry) lookup(name, labels, help, kind string) *series {
	r.mu.Lock()
	defer r.mu.Unlock()
	grp, ok := r.groups[name]
	if !ok {
		grp = &group{help: help, kind: kind, byLabel: make(map[string]*series)}
		r.groups[name] = grp
		r.names = append(r.names, name)
	}
	if grp.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s and %s", name, grp.kind, kind))
	}
	s, ok := grp.byLabel[labels]
	if !ok {
		s = &series{labels: labels}
		grp.byLabel[labels] = s
		grp.series = append(grp.series, s)
	}
	return s
}

// Histogram returns the histogram registered under name with the given
// rendered label pairs (e.g. `path="/query"`; "" for none), creating it
// on first use.
func (r *Registry) Histogram(name, labels, help string) *Histogram {
	s := r.lookup(name, labels, help, "histogram")
	if s.h == nil {
		s.h = new(Histogram)
	}
	return s.h
}

// Gauge returns the gauge registered under name with the given rendered
// label pairs, creating it on first use.
func (r *Registry) Gauge(name, labels, help string) *Gauge {
	s := r.lookup(name, labels, help, "gauge")
	if s.g == nil {
		s.g = new(Gauge)
	}
	return s.g
}

// Names returns the registered metric names in registration order.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]string(nil), r.names...)
}

// WritePrometheus renders every registered metric in Prometheus text
// exposition format. Histogram buckets are cumulative and monotone by
// construction (a single pass accumulates a point-in-time snapshot),
// and _count equals the +Inf bucket even while writers race.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	names := append([]string(nil), r.names...)
	groups := make(map[string]*group, len(names))
	for _, n := range names {
		g := r.groups[n]
		cp := &group{help: g.help, kind: g.kind, series: append([]*series(nil), g.series...)}
		groups[n] = cp
	}
	r.mu.Unlock()

	for _, name := range names {
		grp := groups[name]
		if grp.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", name, grp.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", name, grp.kind)
		for _, s := range grp.series {
			switch grp.kind {
			case "histogram":
				writeHistogram(w, name, s.labels, s.h)
			case "gauge":
				fmt.Fprintf(w, "%s %s\n", seriesName(name, s.labels), formatFloat(float64(s.g.Value())))
			}
		}
	}
}

// bucketLE returns the inclusive upper bound, in seconds, of bucket i:
// every observation in buckets 0..i is < 2^i ns, hence <= 2^i ns.
func bucketLE(i int) float64 {
	return float64(uint64(1)<<uint(i)) / 1e9
}

// writeHistogram renders one histogram series: cumulative _bucket lines
// from the first to the last non-empty bucket, then +Inf, _sum, _count.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) {
	buckets, count, sumNS := h.Snapshot()
	lo, hi := -1, -1
	for i, c := range buckets {
		if c != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	cum := int64(0)
	if lo >= 0 {
		for i := lo; i <= hi; i++ {
			cum += buckets[i]
			fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(labels, `le="`+formatFloat(bucketLE(i))+`"`)), cum)
		}
	}
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_bucket", joinLabels(labels, `le="+Inf"`)), count)
	fmt.Fprintf(w, "%s %s\n", seriesName(name+"_sum", labels), formatFloat(float64(sumNS)/1e9))
	fmt.Fprintf(w, "%s %d\n", seriesName(name+"_count", labels), count)
}

// seriesName renders name{labels} (or bare name when labels is empty).
func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// joinLabels concatenates rendered label pair lists.
func joinLabels(a, b string) string {
	switch {
	case a == "":
		return b
	case b == "":
		return a
	default:
		return a + "," + b
	}
}

// formatFloat renders a float the way Prometheus expects: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteGauge writes one ad-hoc gauge line (with HELP/TYPE) for values
// tracked outside the registry, e.g. counters reflected off a stats
// struct.
func WriteGauge(w io.Writer, name, labels, help string, v float64) {
	if help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", name, help)
	}
	fmt.Fprintf(w, "# TYPE %s gauge\n", name)
	fmt.Fprintf(w, "%s %s\n", seriesName(name, labels), formatFloat(v))
}

// SortedLabelPairs renders a label map as sorted k="v" pairs, for
// stable series identity.
func SortedLabelPairs(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := ""
	for _, k := range keys {
		out = joinLabels(out, k+`="`+labels[k]+`"`)
	}
	return out
}
