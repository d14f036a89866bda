package runtime_test

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"gillis/internal/batching"
	"gillis/internal/gateway"
	"gillis/internal/graph"
	"gillis/internal/mesh"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// ownedModel is what concurrent Envs share: an initialised graph, its units,
// a plan, inputs and the monolithic outputs.
type ownedModel struct {
	g     *graph.Graph
	units []*partition.Unit
	plan  *partition.Plan
	xs    []*tensor.Tensor
	want  []*tensor.Tensor
}

func newOwnedModel(t *testing.T, name string, seed int64, queries int, groups func(units int) []partition.GroupPlan) ownedModel {
	t.Helper()
	g := graph.New(name, []int{3, 24, 24})
	g.MustAdd(nn.NewConv2D("stem", 3, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 8))
	g.MustAdd(nn.NewReLU("stem_relu"))
	pool := g.MustAdd(nn.NewMaxPool2D("pool", 3, 2, 1))
	c1 := g.MustAdd(nn.NewConv2D("b_conv1", 8, 8, 3, 1, 1), pool)
	r1 := g.MustAdd(nn.NewReLU("b_relu1"), c1)
	c2 := g.MustAdd(nn.NewConv2D("b_conv2", 8, 8, 3, 1, 1), r1)
	add := g.MustAdd(nn.NewAdd("b_add"), c2, pool)
	g.MustAdd(nn.NewReLU("b_relu2"), add)
	g.MustAdd(nn.NewAvgPool2D("avg", 2, 2))
	g.Init(seed)
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	m := ownedModel{g: g, units: units, plan: &partition.Plan{Model: name, Groups: groups(len(units))}}
	if err := m.plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < queries; e++ {
		x := tensor.Rand(rng, 1, 3, 24, 24)
		out, err := g.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		m.xs, m.want = append(m.xs, x), append(m.want, out)
	}
	return m
}

// ownedServe is one goroutine's work: on Envs of its own, a traced Real-mode
// replay of the partitioned model under faults, retries, hedging and batches
// of two, then a traced mesh-routed replay of the second model. It returns
// every outcome in arrival order, the partitioned replay's first.
func ownedServe(part, routed ownedModel) ([]gateway.Outcome, error) {
	arrivals := func(n int) []time.Duration {
		at := make([]time.Duration, n)
		for i := range at {
			at[i] = time.Duration(i) * 40 * time.Millisecond
		}
		return at
	}

	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.1, StragglerProb: 0.25, StragglerFactor: 8}
	p := platform.New(simnet.NewEnv(), cfg, 5)
	d, err := runtime.Deploy(p, part.units, part.plan, runtime.Real,
		runtime.WithRetries(4, 5), runtime.WithHedging(60), runtime.WithMasterFallback())
	if err != nil {
		return nil, err
	}
	if err := d.Prewarm(); err != nil {
		return nil, err
	}
	_, outs, err := gateway.Run(d, arrivals(len(part.xs)), gateway.Config{
		MaxInFlight: 2,
		QueueCap:    len(part.xs),
		Traced:      true,
		Input:       func(i int) *tensor.Tensor { return part.xs[i] },
		Batch:       batching.Config{MaxBatch: 2, MaxDelay: 60 * time.Millisecond},
	})
	if err != nil {
		return nil, err
	}

	p = platform.New(simnet.NewEnv(), platform.AWSLambda(), 5)
	m, err := mesh.New(p, mesh.Config{Instances: 1, InstanceMemMB: 64, Mode: runtime.Real},
		[]mesh.ModelSpec{{ID: routed.plan.Model, Units: routed.units, Plan: routed.plan}})
	if err != nil {
		return nil, err
	}
	_, routedOuts, err := gateway.Run(m, arrivals(len(routed.xs)), gateway.Config{
		MaxInFlight: 1,
		QueueCap:    len(routed.xs),
		Traced:      true,
		Input:       func(i int) *tensor.Tensor { return routed.xs[i] },
		Model:       func(int) string { return routed.plan.Model },
		Router:      m,
	})
	if err != nil {
		return nil, err
	}
	return append(outs, routedOuts...), nil
}

// opEvents counts the per-operator kernel events of every trace of a run; a
// batch's members share one trace, counted once per member like everything
// else here.
func opEvents(outs []gateway.Outcome) (n int) {
	for _, o := range outs {
		for _, sp := range o.Trace.Spans() {
			for _, ev := range sp.Events {
				if strings.HasPrefix(ev.Name, "op:") {
					n++
				}
			}
		}
	}
	return n
}

// TestConcurrentEnvsOwnTheirState is the ownership contract (DESIGN §3) as a
// test, and the reason it runs under -race: one goroutine owns an Env and
// everything deployed on it, and what concurrent Envs share — units, plans,
// graphs, the kernel scratch pool — synchronises itself. N goroutines each
// serve the same seeded traced Real-mode replays on Envs of their own; every
// output must be the monolithic forward's, bit for bit, and every trace must
// hold exactly the spans and operator events of its own serve — the bytes the
// sequential run recorded. (When the observer was a process-wide hook,
// concurrent serves swapped it under each other and op events went to the
// wrong trace or to none.)
func TestConcurrentEnvsOwnTheirState(t *testing.T) {
	part := newOwnedModel(t, "owned-part", 42, 12, func(n int) []partition.GroupPlan {
		return []partition.GroupPlan{
			{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
			{First: 1, Last: n - 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
			{First: n - 1, Last: n - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
		}
	})
	routed := newOwnedModel(t, "owned-routed", 43, 3, func(n int) []partition.GroupPlan {
		return []partition.GroupPlan{{First: 0, Last: n - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true}}
	})
	want := append(append([]*tensor.Tensor(nil), part.want...), routed.want...)

	ref, err := ownedServe(part, routed)
	if err != nil {
		t.Fatal(err)
	}
	refOps := opEvents(ref)
	retries, hedges, batched := 0, 0, false
	for i, o := range ref {
		if o.Err != "" {
			t.Fatalf("sequential query %d failed: %s", i, o.Err)
		}
		retries += tracetest.CountEvents(o.Trace, "retry")
		hedges += tracetest.CountEvents(o.Trace, "hedge")
		batched = batched || o.BatchSize == 2
	}
	if refOps == 0 || retries == 0 || hedges == 0 || !batched {
		t.Fatalf("the scenario must exercise tracing, retries, hedging and batching: %d op events, %d retries, %d hedges, batched %v", refOps, retries, hedges, batched)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, err := ownedServe(part, routed)
			if err != nil {
				t.Error(err)
				return
			}
			if got := opEvents(outs); got != refOps {
				t.Errorf("traces hold %d op events, the sequential run's hold %d", got, refOps)
			}
			for i, o := range outs {
				if o.Err != "" || !tensor.Equal(o.Output, want[i]) {
					t.Errorf("query %d: output differs from graph.Forward (err %q)", i, o.Err)
					continue
				}
				if o.Trace.Len() == 0 { // CheckWellFormed would t.Fatal, off the test's goroutine
					t.Errorf("query %d: no trace", i)
					continue
				}
				tracetest.CheckWellFormed(t, o.Trace)
				if got, seq := tracetest.Canonical(o.Trace, nil), tracetest.Canonical(ref[i].Trace, nil); !bytes.Equal(got, seq) {
					t.Errorf("query %d: trace differs from the sequential run's\n--- got ---\n%s--- sequential ---\n%s", i, got, seq)
				}
			}
		}()
	}
	wg.Wait()
}

// TestPooledJoinsOutliveHedgeLosers is the scratch pool's ownership rule
// (internal/runtime/buffers.go, DESIGN §11) as a test, and it runs under
// -race for the same reason as TestConcurrentEnvsOwnTheirState: a Real-mode
// pass joins every fork-join round into a pooled buffer, and the master
// gives it back once the next group has consumed it, unless a hedged
// invocation that was handed it is still running. Goroutines each serve, on
// Envs of their own, a replay of two spatial rounds and a whole group on a
// worker — each round handed the previous one's pooled join — under
// stragglers (hedging), crashes (retries) and batches of two, so the pool's
// buffers pass from one goroutine to another; every output must be the
// monolithic forward's, bit for bit. The scenario must leave a hedge loser
// running past the end of its round. Were the loser's input given back
// early, another goroutine's forward would write it while the loser reads
// it — a race the detector reports. (Only the detector sees it: the loser's
// own output is dropped.)
func TestPooledJoinsOutliveHedgeLosers(t *testing.T) {
	m := newOwnedModel(t, "pooled-joins", 44, 24, func(n int) []partition.GroupPlan {
		return []partition.GroupPlan{
			{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
			{First: 1, Last: n - 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}},
			{First: n - 1, Last: n - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
		}
	})
	serve := func() ([]gateway.Outcome, error) {
		cfg := platform.AWSLambda()
		cfg.Faults = platform.FaultProfile{FailureProb: 0.1, StragglerProb: 0.25, StragglerFactor: 8}
		p := platform.New(simnet.NewEnv(), cfg, 9)
		d, err := runtime.Deploy(p, m.units, m.plan, runtime.Real, runtime.WithRetries(4, 5), runtime.WithHedging(60))
		if err != nil {
			return nil, err
		}
		if err := d.Prewarm(); err != nil {
			return nil, err
		}
		at := make([]time.Duration, len(m.xs))
		for i := range at {
			at[i] = time.Duration(i) * 40 * time.Millisecond
		}
		_, outs, err := gateway.Run(d, at, gateway.Config{
			MaxInFlight: 2,
			QueueCap:    len(m.xs),
			Traced:      true,
			Input:       func(i int) *tensor.Tensor { return m.xs[i] },
			Batch:       batching.Config{MaxBatch: 2, MaxDelay: 60 * time.Millisecond},
		})
		return outs, err
	}
	check := func(outs []gateway.Outcome) {
		for i, o := range outs {
			if o.Err != "" || !tensor.Equal(o.Output, m.want[i]) {
				t.Errorf("query %d: output differs from graph.Forward (err %q)", i, o.Err)
			}
		}
	}

	ref, err := serve()
	if err != nil {
		t.Fatal(err)
	}
	check(ref)
	retries, outlived := 0, 0
	for _, o := range ref {
		retries += tracetest.CountEvents(o.Trace, "retry")
		outlived += losersOutlivingTheirRound(o.Trace)
	}
	t.Logf("%d queries: %d retries, %d hedge losers still running past their round", len(ref), retries, outlived)
	if retries == 0 || outlived == 0 {
		t.Fatalf("the scenario must retry and leave a hedge loser running past its round: %d retries, %d losers", retries, outlived)
	}

	const goroutines = 8
	var wg sync.WaitGroup
	for w := 0; w < goroutines; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			outs, err := serve()
			if err != nil {
				t.Error(err)
				return
			}
			check(outs)
		}()
	}
	wg.Wait()
}

// losersOutlivingTheirRound counts the invocations of tr that lost a hedge
// race and settled after the fork-join round they belonged to had ended.
func losersOutlivingTheirRound(tr *trace.Trace) int {
	spans := tr.Spans()
	n := 0
	for _, sp := range spans {
		if sp.Attr("hedge") != "lost" {
			continue
		}
		g := sp
		for g.Kind != trace.KindGroup && g.Parent >= 0 {
			g = spans[g.Parent]
		}
		if g.Kind == trace.KindGroup && (sp.End > g.End || sp.End == g.End && sp.EndSeq > g.EndSeq) {
			n++
		}
	}
	return n
}
