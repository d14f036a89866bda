package runtime

import (
	"math/rand"
	"testing"

	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// TestWholeGroupIsOneGraph: for every whole group of a zoo model's
// latency-optimal plan, and for the model's whole unit chain, the group's
// joined graph — the one a Real deployment runs, which a ShapeOnly one never
// builds, as it builds no partition's graph — returns the bits of the unit-by-unit reference ForwardChain at
// batch 1 and 3, and the group's ArenaBytes is its join's and no more than
// the hungriest unit's arena plus the two slabs the inner unit outputs
// alternated between when every unit ran in an arena of its own.
func TestWholeGroupIsOneGraph(t *testing.T) {
	names := []string{"tinycnn", "tinycnn-fused", "mobilenet-mini", "inception-mini", "rnn-tiny2"}
	if !testing.Short() && !raceOn {
		names = append(names, "resnet34", "resnet50")
	}
	// The performance model prices no depthwise convolution and no concat,
	// so these two deploy whole: their one group is the whole chain.
	unpriced := map[string]bool{"mobilenet-mini": true, "inception-mini": true}
	m := lambdaModel(t)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			units := initializedUnits(t, name)
			plan := partition.DefaultPlan(name, units)
			if !unpriced[name] {
				var err error
				if plan, _, err = core.LatencyOptimal(m, units, core.Config{}); err != nil {
					t.Fatal(err)
				}
			}
			p := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
			realD, err := Deploy(p, units, plan, Real)
			if err != nil {
				t.Fatal(err)
			}
			shapeD, err := Deploy(p, units, plan, ShapeOnly)
			if err != nil {
				t.Fatal(err)
			}
			chain := false // the whole chain is one of the plan's groups
			for gi, gr := range realD.groups {
				if shapeD.groups[gi].parts != nil {
					t.Errorf("group %d: a ShapeOnly deployment built graphs", gi)
				}
				if len(gr.parts) != gr.gp.Option.Parts {
					t.Fatalf("group %d (%v): %d graphs", gi, gr.gp.Option, len(gr.parts))
				}
				if gr.gp.Option.Dim != partition.DimNone {
					continue
				}
				checkWholeGroup(t, units, gr.gp.First, gr.gp.Last, gr.parts[0])
				chain = chain || gr.gp.First == 0 && gr.gp.Last == len(units)-1
			}
			if !chain {
				whole, err := partition.Join(units)
				if err != nil {
					t.Fatal(err)
				}
				checkWholeGroup(t, units, 0, len(units)-1, whole)
			}
		})
	}
}

// initializedUnits is the named model's unit chain with its weights; the
// tiny CNN comes plain and operator-fused.
func initializedUnits(t *testing.T, name string) []*partition.Unit {
	t.Helper()
	var g *graph.Graph
	switch name {
	case "tinycnn", "tinycnn-fused":
		g = tinyGraph(t)
		if name == "tinycnn-fused" {
			var err error
			if g, _, err = graph.Fuse(g); err != nil {
				t.Fatal(err)
			}
		}
	default:
		var err error
		if g, err = models.ByName(name); err != nil {
			t.Fatal(err)
		}
		g.Init(21)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// checkWholeGroup checks g as the join of units[first..last].
func checkWholeGroup(t *testing.T, units []*partition.Unit, first, last int, g *graph.Graph) {
	t.Helper()
	group := units[first : last+1]
	if g == nil {
		t.Fatalf("units %d..%d: no join", first, last)
	}
	rng := rand.New(rand.NewSource(int64(first)))
	xs := make([]*tensor.Tensor, 3)
	want := make([]*tensor.Tensor, len(xs))
	for e := range xs {
		xs[e] = tensor.Rand(rng, 1, group[0].InShape...)
		var err error
		if want[e], err = partition.ForwardChain(group, xs[e]); err != nil {
			t.Fatal(err)
		}
	}
	for _, batch := range []int{1, 3} {
		got, err := g.ForwardBatch(xs[:batch], nil)
		if err != nil {
			t.Fatalf("units %d..%d ×%d: %v", first, last, batch, err)
		}
		for e := range got {
			if !tensor.Equal(got[e], want[e]) {
				t.Errorf("units %d..%d ×%d: query %d differs from ForwardChain", first, last, batch, e)
			}
		}
	}
	var most int64
	var slab [2]int64
	for i, u := range group {
		b, err := u.Sub.ArenaBytes()
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, b)
		if i < len(group)-1 {
			slab[i%2] = max(slab[i%2], tensor.SizeBytes(u.OutShape))
		}
	}
	joined, err := g.ArenaBytes()
	if err != nil {
		t.Fatal(err)
	}
	got, err := partition.ArenaBytes(units, first, last, partition.Option{Dim: partition.DimNone, Parts: 1})
	if err != nil || got != joined || got > most+slab[0]+slab[1] {
		t.Errorf("units %d..%d: ArenaBytes %d (%v), its join's %d, hungriest unit %d + slabs %v", first, last, got, err, joined, most, slab)
	}
	t.Logf("units %d..%d: arena %d B, unit by unit %d B", first, last, got, most+slab[0]+slab[1])
}
