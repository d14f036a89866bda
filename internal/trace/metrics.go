package trace

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Registry is a concurrent metrics registry: named counters and streaming
// histograms aggregated across queries. The platform owns one per
// deployment by default; long-lived front ends (gillis-server) share a
// single registry across many short-lived platform simulations.
//
// It is the one piece of serving state that more than one goroutine touches,
// which is why it alone below the front end synchronises (DESIGN §3): every
// gillis-server request goroutine records into the server's registry from
// its own Env while the /v1/metrics handler's goroutine reads a Summary.
// Counters are lock-free; histograms and gauges take a short mutex per
// observation. Get-or-create lookups are guarded by a registry lock, so
// callers on hot paths should hold on to the returned handle.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it at zero if needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named histogram, creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{min: math.Inf(1), max: math.Inf(-1)}
		r.hists[name] = h
	}
	return h
}

// Gauge returns the named gauge, creating it unset if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Gauge is a point-in-time metric: the current value plus the virtual-time
// stamp of its last change. Controllers record state through gauges (active
// plan index, fault-regime estimate, brownout on/off) where a counter's
// monotonicity is wrong. The stamp is caller-supplied — virtual-clock
// milliseconds, never wall time — so summaries stay bit-reproducible.
type Gauge struct {
	mu        sync.Mutex
	set       bool
	value     float64
	changedMs float64
}

// Set records v at virtual time atMs. The last-change stamp only advances
// when the value actually changes (or on the first Set), so an idle
// controller re-asserting the same state each tick leaves the gauge's
// history untouched.
func (g *Gauge) Set(v, atMs float64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.set && g.value == v {
		return
	}
	g.set = true
	g.value = v
	g.changedMs = atMs
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// histBuckets is the number of exponential histogram buckets. Bucket i
// holds observations in [2^(i-histBias-1), 2^(i-histBias)); the span covers
// roughly 1 µs to 30 minutes when observations are milliseconds.
const (
	histBuckets = 52
	histBias    = 10
)

// Histogram is a streaming histogram over float64 observations with
// power-of-two buckets: exact count/sum/min/max plus bucket counts for
// approximate quantiles.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     float64
	min     float64
	max     float64
	buckets [histBuckets]int64
}

// bucketOf maps an observation to its bucket index. v is frac·2^e with frac
// in [0.5, 1), so it lies in [2^(e-1), 2^e): bucket e+histBias, read off the
// float's exponent exactly (Log2 rounds up a value a few ulps below a power
// of two, one bucket high).
func bucketOf(v float64) int {
	if !(v > 0) { // zero, negative or NaN
		return 0
	}
	if math.IsInf(v, 1) {
		return histBuckets - 1
	}
	_, e := math.Frexp(v)
	return min(max(e+histBias, 0), histBuckets-1)
}

// bucketUpper returns the exclusive upper bound of bucket i.
func bucketUpper(i int) float64 {
	return math.Exp2(float64(i - histBias))
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.count++
	h.sum += v
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
	h.buckets[bucketOf(v)]++
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.count
}

// Mean returns the mean observation (0 when empty).
func (h *Histogram) Mean() float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Quantile returns an upper-bound estimate of the q-quantile (q in [0,1])
// from the bucket counts: the upper edge of the bucket holding the q-th
// observation, clamped to the observed max. It returns 0 when empty.
func (h *Histogram) Quantile(q float64) float64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(h.count)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for i, n := range h.buckets {
		seen += n
		if seen >= rank {
			return math.Min(bucketUpper(i), h.max)
		}
	}
	return h.max
}

// Summary renders every metric as sorted, deterministic text — the format
// gillis-server serves on its metrics endpoint.
func (r *Registry) Summary() string {
	r.mu.Lock()
	cnames := make([]string, 0, len(r.counters))
	for n := range r.counters {
		cnames = append(cnames, n)
	}
	gnames := make([]string, 0, len(r.gauges))
	for n := range r.gauges {
		gnames = append(gnames, n)
	}
	hnames := make([]string, 0, len(r.hists))
	for n := range r.hists {
		hnames = append(hnames, n)
	}
	counters := make(map[string]*Counter, len(r.counters))
	for n, c := range r.counters {
		counters[n] = c
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for n, g := range r.gauges {
		gauges[n] = g
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for n, h := range r.hists {
		hists[n] = h
	}
	r.mu.Unlock()

	sort.Strings(cnames)
	sort.Strings(gnames)
	sort.Strings(hnames)
	var sb strings.Builder
	for _, n := range cnames {
		fmt.Fprintf(&sb, "counter %s %d\n", n, counters[n].Value())
	}
	for _, n := range gnames {
		g := gauges[n]
		g.mu.Lock()
		set, value, changed := g.set, g.value, g.changedMs
		g.mu.Unlock()
		if !set {
			fmt.Fprintf(&sb, "gauge %s unset\n", n)
			continue
		}
		fmt.Fprintf(&sb, "gauge %s value=%g last_change_ms=%.3f\n", n, value, changed)
	}
	for _, n := range hnames {
		h := hists[n]
		h.mu.Lock()
		count, sum, min, max := h.count, h.sum, h.min, h.max
		h.mu.Unlock()
		if count == 0 {
			fmt.Fprintf(&sb, "histogram %s count=0\n", n)
			continue
		}
		fmt.Fprintf(&sb, "histogram %s count=%d sum=%.3f min=%.3f mean=%.3f p50=%.3f p99=%.3f max=%.3f\n",
			n, count, sum, min, sum/float64(count), h.Quantile(0.5), h.Quantile(0.99), max)
	}
	return sb.String()
}
