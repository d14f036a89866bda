package core

import (
	"math"
	"runtime"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

func benchModelAndUnits(b *testing.B, name string) (*perf.Model, []*partition.Unit) {
	b.Helper()
	m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
	if err != nil {
		b.Fatal(err)
	}
	g, err := models.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		b.Fatal(err)
	}
	return m, units
}

func BenchmarkLatencyOptimalVGG16(b *testing.B) {
	m, units := benchModelAndUnits(b, "vgg16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LatencyOptimal(m, units, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyOptimalCold is a cold start's planning: every op fits a
// fresh model and plans with it on a fresh table, as a server boot, a
// replay's set-up and an adaptive replan do.
// BenchmarkLatencyOptimalVGG16 reuses one fitted model.
func BenchmarkLatencyOptimalCold(b *testing.B) {
	resnet34, err := models.ByName("resnet34")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{{"resnet34", resnet34}, {"demo-cnn", models.DemoCNN()}} {
		b.Run(bc.name, func(b *testing.B) {
			units, err := partition.Linearize(bc.g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := LatencyOptimal(m, units, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSLOAwareEpisode(b *testing.B) {
	m, units := benchModelAndUnits(b, "vgg16")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One policy-gradient batch (10 rollouts) per iteration.
		if _, err := SLOAware(m, units, lo.LatencyMs*2, SLOConfig{Episodes: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

// TestLatencyOptimalAllocationBudget holds a cold resnet34 plan — a fresh
// perf.Build and LatencyOptimal on it, what every server boot and replay
// set-up pays — to its objects and bytes: 8.1 k objects and 2.23 MB. They
// were 13.9 k and 4.51 MB while every spatial group was split from scratch,
// each part with a slab of row ranges of its own, and each fan-out of the
// fork-join Monte Carlo drew its overheads from a fresh generator; 27.2 k
// and 4.55 MB while every unit of every spatial part had its row ranges in
// a slice of its own; and 102.8 k and 6.35 MB while every group's price
// re-predicted each op of each unit (44 k objects of that) and every spatial
// slice re-derived each node's FLOPs from its shapes (31 k). Each budget is
// less than 5 % above what it measures, so a change that allocates less
// lowers the budget.
func TestLatencyOptimalAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget, budgetBytes = 8_500, 2_300_000
	units := unitsOf(t, "resnet34")
	plan := func() {
		m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := LatencyOptimal(m, units, Config{}); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(3, plan)
	bytes := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 3; i++ {
		runtime.ReadMemStats(&before)
		plan()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("a cold resnet34 plan allocates %v objects, %d B", allocs, bytes)
	if allocs > budget || budget-allocs >= budget/20 {
		t.Errorf("a cold plan allocates %v objects; the budget, %d, must be at most 5 %% above it", allocs, budget)
	}
	if bytes > budgetBytes || budgetBytes-bytes >= budgetBytes/20 {
		t.Errorf("a cold plan allocates %d B; the budget, %d B, must be at most 5 %% above it", bytes, budgetBytes)
	}
}
