package trace

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterAndRegistry(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a") != c {
		t.Error("get-or-create must return the same handle")
	}
	if r.Counter("b").Value() != 0 {
		t.Error("new counter must start at zero")
	}
}

func TestGauge(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("state")
	if r.Gauge("state") != g {
		t.Error("get-or-create must return the same handle")
	}
	// line is the gauge's line of the registry summary.
	line := func(name string) string {
		for _, l := range strings.Split(r.Summary(), "\n") {
			if strings.HasPrefix(l, "gauge "+name+" ") {
				return l
			}
		}
		return ""
	}
	if got, want := line("state"), "gauge state unset"; got != want {
		t.Errorf("new gauge: %q, want %q", got, want)
	}
	g.Set(2, 100)
	if got, want := line("state"), "gauge state value=2 last_change_ms=100.000"; got != want {
		t.Errorf("after Set(2, 100): %q, want %q", got, want)
	}
	// Re-asserting the same value must not advance the stamp.
	g.Set(2, 200)
	if got, want := line("state"), "gauge state value=2 last_change_ms=100.000"; got != want {
		t.Errorf("stamp advanced on no-op Set: %q, want %q", got, want)
	}
	g.Set(3, 300)
	if got, want := line("state"), "gauge state value=3 last_change_ms=300.000"; got != want {
		t.Errorf("after Set(3, 300): %q, want %q", got, want)
	}
	// First Set always stamps, even when setting the zero value.
	r.Gauge("zero").Set(0, 50)
	if got, want := line("zero"), "gauge zero value=0 last_change_ms=50.000"; got != want {
		t.Errorf("zero-value first Set: %q, want %q", got, want)
	}
}

func TestHistogramStats(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Errorf("count = %d", h.Count())
	}
	if s := r.Summary(); !strings.Contains(s, "histogram lat count=100 sum=5050.000 ") {
		t.Errorf("sum of 1..100 not 5050: %s", s)
	}
	if h.Mean() != 50.5 {
		t.Errorf("mean = %v", h.Mean())
	}
	// Power-of-two buckets: the quantile is an upper bound within one
	// bucket width, clamped to the observed max.
	p50 := h.Quantile(0.5)
	if p50 < 50 || p50 > 64 {
		t.Errorf("p50 = %v, want in [50, 64]", p50)
	}
	if got := h.Quantile(1.0); got != 100 {
		t.Errorf("p100 = %v, want clamped to max 100", got)
	}
	if r.Histogram("empty").Quantile(0.5) != 0 || r.Histogram("empty").Mean() != 0 {
		t.Error("empty histogram stats must be zero")
	}
}

func TestHistogramBuckets(t *testing.T) {
	// Non-positive observations land in bucket 0; huge ones clamp to the
	// last bucket instead of indexing out of range.
	if bucketOf(0) != 0 || bucketOf(-5) != 0 {
		t.Error("non-positive values must map to bucket 0")
	}
	if bucketOf(math.MaxFloat64) != histBuckets-1 {
		t.Error("huge values must clamp to the last bucket")
	}
	for _, v := range []float64{0.001, 0.5, 1, 3, 1024, 1e6} {
		b := bucketOf(v)
		if b < 0 || b >= histBuckets {
			t.Fatalf("bucketOf(%v) = %d out of range", v, b)
		}
		if v < bucketUpper(b-1) || v > bucketUpper(b) {
			t.Errorf("bucketOf(%v) = %d, bounds (%v, %v]", v, b, bucketUpper(b-1), bucketUpper(b))
		}
	}
}

// TestHistogramBucketEdges: bucket i holds [2^(i-histBias-1), 2^(i-histBias)),
// so 2^k opens a bucket and the float one ulp below it closes the previous
// one, over every power of two the buckets span and past both ends. Log2
// rounded most of the ulp-below values up to k, one bucket high.
func TestHistogramBucketEdges(t *testing.T) {
	clamp := func(i int) int { return min(max(i, 0), histBuckets-1) }
	for k := -histBias - 3; k <= histBuckets-histBias+2; k++ {
		pow := math.Ldexp(1, k)
		below := math.Nextafter(pow, 0)
		if got, want := bucketOf(pow), clamp(k+histBias+1); got != want {
			t.Errorf("bucketOf(2^%d) = %d, want %d", k, got, want)
		}
		if got, want := bucketOf(below), clamp(k+histBias); got != want {
			t.Errorf("bucketOf(2^%d - 1 ulp) = %d, want %d", k, got, want)
		}
		if b := bucketOf(below); b > 0 && b < histBuckets-1 && !(below < bucketUpper(b) && below >= bucketUpper(b-1)) {
			t.Errorf("2^%d - 1 ulp outside its bucket %d: [%v, %v)", k, b, bucketUpper(b-1), bucketUpper(b))
		}
	}
	if bucketOf(math.NaN()) != 0 || bucketOf(math.Inf(1)) != histBuckets-1 {
		t.Error("NaN must map to bucket 0 and +Inf to the last bucket")
	}
	if bucketOf(math.SmallestNonzeroFloat64) != 0 {
		t.Error("a subnormal must clamp to bucket 0")
	}
}

func TestSummaryDeterministic(t *testing.T) {
	build := func() *Registry {
		r := NewRegistry()
		r.Counter("z.last").Add(2)
		r.Counter("a.first").Add(1)
		h := r.Histogram("m.lat")
		h.Observe(1)
		h.Observe(9)
		r.Histogram("m.empty")
		r.Gauge("g.plan").Set(1, 250)
		r.Gauge("g.unset")
		return r
	}
	a, b := build().Summary(), build().Summary()
	if a != b {
		t.Fatalf("summary not deterministic:\n%s\nvs\n%s", a, b)
	}
	lines := strings.Split(strings.TrimSpace(a), "\n")
	want := []string{
		"counter a.first 1",
		"counter z.last 2",
		"gauge g.plan value=1 last_change_ms=250.000",
		"gauge g.unset unset",
		"histogram m.empty count=0",
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
	if !strings.HasPrefix(lines[5], "histogram m.lat count=2 sum=10.000 min=1.000 mean=5.000") {
		t.Errorf("histogram line = %q", lines[5])
	}
}

// TestRegistryConcurrent hammers the registry from many goroutines; run
// under -race (the Makefile matrix includes this package) it verifies the
// lock-free counters and locked histograms race-cleanly, including
// concurrent get-or-create of the same names.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("own.%d", w)).Inc()
				r.Histogram("shared.h").Observe(float64(i % 17))
				r.Gauge("shared.g").Set(float64(i%3), float64(i))
				if i%100 == 0 {
					_ = r.Summary() // concurrent reads race against writes
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != workers*perWorker {
		t.Errorf("shared counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared.h").Count(); got != workers*perWorker {
		t.Errorf("shared histogram count = %d, want %d", got, workers*perWorker)
	}
}
