package runtime

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// TestWholeGroupIsOneGraph: for every whole group of a zoo model's
// latency-optimal plan, and for the model's whole unit chain, the group's
// joined graph — the one a Real deployment runs, which a ShapeOnly one never
// builds, as it builds no partition's graph — returns the bits of the
// unit-by-unit reference ForwardChain at batch 1 and 3. (That a join's arena
// is no more than its units' is graph's TestJoinArenaBytes.)
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
		if want[e], err = forwardChain(group, xs[e]); err != nil {
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
}

// TestComputeChargesAPartitionItsShare: on a platform with no compute noise,
// every compute site's span lasts exactly ComputeOp's time for its share of
// the group's ops. A whole group's share is all of them: rnn-tiny2's `last`,
// a unit of no FLOPs, is still charged its op bytes, on the master and on a
// worker. A partition of proj's channel split is charged its FLOPs over the
// group's, on the master and on a worker.
func TestComputeChargesAPartitionItsShare(t *testing.T) {
	g, err := models.ByName("rnn-tiny2")
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	const last, proj = 2, 3
	if units[last].FLOPs != 0 || units[proj].FLOPs == 0 {
		t.Fatalf("rnn-tiny2: want unit %d of no FLOPs and unit %d of some", last, proj)
	}
	cfg := platform.AWSLambda()
	cfg.ComputeNoise = 0
	// charged is ComputeOp's time for share of group's ops, at batch 1.
	charged := func(group []*partition.Unit, share float64) time.Duration {
		var flops int64
		for _, u := range group {
			flops += u.FLOPs
		}
		sec := float64(int64(float64(flops)*share))/(cfg.GFLOPS*1e9) +
			float64(int64(float64(groupOpBytes(group))*share))/(cfg.MemGBps*1e9) + cfg.OpOverheadMs/1000
		return time.Duration(sec * float64(time.Second))
	}
	for _, onMaster := range []bool{true, false} {
		plan := &partition.Plan{Model: "rnn-tiny2", Groups: []partition.GroupPlan{
			{First: 0, Last: 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
			{First: last, Last: last, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: onMaster},
			{First: proj, Last: proj, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}, OnMaster: true},
			{First: 4, Last: 4, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: !onMaster},
		}}
		_, tr, _, prefix, err := serveTracedOnce(t, cfg, 1, units, plan, ShapeOnly, nil, 1)
		if err != nil {
			t.Fatal(err)
		}
		spans := tr.Spans()
		// site is the span of partition part of group gi's compute: the
		// master's compute span under the group's, or the worker's exec span.
		site := func(gi, part int) *trace.Span {
			for _, sp := range spans {
				switch {
				case part == 0 && plan.Groups[gi].OnMaster:
					if sp.Kind == trace.KindCompute && strings.HasPrefix(sp.Name, "master-") && spans[sp.Parent].Name == fmt.Sprintf("group%d", gi) {
						return sp
					}
				case sp.Kind == trace.KindExec && spans[sp.Parent].Name == fmt.Sprintf("invoke:%s-g%d-p%d", prefix, gi, part):
					return sp
				}
			}
			t.Fatalf("last on master %v: no compute span for group %d part %d", onMaster, gi, part)
			return nil
		}
		ext, err := partition.GroupExtent(units, proj, proj, plan.Groups[2].Option)
		if err != nil {
			t.Fatal(err)
		}
		checks := []struct {
			gi, part int
			want     time.Duration
		}{
			{1, 0, charged(units[last:last+1], 1)},
			{2, 0, charged(units[proj:proj+1], float64(ext.PerPart[0].FLOPs)/float64(ext.GroupFLOPs))},
			{2, 1, charged(units[proj:proj+1], float64(ext.PerPart[1].FLOPs)/float64(ext.GroupFLOPs))},
			{3, 0, charged(units[4:5], 1)},
		}
		for _, c := range checks {
			sp := site(c.gi, c.part)
			if got := sp.End - sp.Start; got != c.want {
				t.Errorf("last on master %v: group %d part %d (%s) lasts %v, want %v", onMaster, c.gi, c.part, sp.Name, got, c.want)
			}
		}
	}
}
