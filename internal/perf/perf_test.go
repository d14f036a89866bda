package perf

import (
	"math"
	"strings"
	"sync"
	"testing"

	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
)

// sharedModel builds one fitted Lambda model for all tests (profiling runs
// a few hundred simulated invocations).
var (
	buildOnce   sync.Once
	lambdaModel *Model
	buildErr    error
)

func lambda(t *testing.T) *Model {
	t.Helper()
	buildOnce.Do(func() {
		lambdaModel, buildErr = Build(platform.AWSLambda(), 1, 2, 300)
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return lambdaModel
}

func unitsOf(t *testing.T, name string) []*partition.Unit {
	t.Helper()
	g, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func TestBuildValidations(t *testing.T) {
	cfg := platform.AWSLambda()
	if _, err := New(cfg, nil, cfg.InvokeOverhead, 10); err == nil {
		t.Fatal("expected no-layer-models error")
	}
	m := lambda(t)
	if _, err := New(cfg, map[nn.Kind][]float64{nn.KindConv: {0, 1, 0}}, cfg.InvokeOverhead, -1); err == nil {
		t.Fatal("expected bad-bandwidth error")
	}
	if m.NetMBps() <= 0 || m.Comm().Validate() != nil {
		t.Fatal("fitted model invalid")
	}
}

func TestUnitTimeAccuracy(t *testing.T) {
	// Predicted model runtime vs ground truth (the simulator's cost law):
	// Fig. 15 top-left reports ≤9% error.
	m := lambda(t)
	cfg := m.Platform()
	for _, name := range []string{"vgg19", "wrn50-3", "rnn3"} {
		units := unitsOf(t, name)
		var pred, truth float64
		for _, u := range units {
			ms, err := m.UnitTimeMs(u)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pred += ms
			for _, node := range u.Sub.Nodes() {
				ins := u.NodeInShapes(node)
				fl := node.Op.FLOPs(ins...)
				var bytes int64
				for _, s := range ins {
					n := int64(4)
					for _, d := range s {
						n *= int64(d)
					}
					bytes += n
				}
				outShape, err := node.Op.OutShape(ins...)
				if err != nil {
					t.Fatal(err)
				}
				n := int64(4)
				for _, d := range outShape {
					n *= int64(d)
				}
				bytes += n + node.Op.ParamCount()*4
				truth += float64(fl)/(cfg.GFLOPS*1e6) + float64(bytes)/(cfg.MemGBps*1e6) + cfg.OpOverheadMs
			}
		}
		if rel := math.Abs(pred-truth) / truth; rel > 0.09 {
			t.Errorf("%s: predicted %.0f ms vs truth %.0f ms (%.1f%% error)", name, pred, truth, rel*100)
		}
	}
}

func TestPredictGroupParallelSpeedup(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg16")
	// A heavy early conv group should get faster with moderate parallelism.
	gp := func(parts int) partition.GroupPlan {
		opt := partition.Option{Dim: partition.DimSpatial, Parts: parts}
		if parts == 1 {
			opt = partition.Option{Dim: partition.DimNone, Parts: 1}
		}
		return partition.GroupPlan{First: 0, Last: 2, Option: opt, OnMaster: parts == 1}
	}
	tab := m.Table(units, 1)
	p1, err := tab.Group(gp(1))
	if err != nil {
		t.Fatal(err)
	}
	p4, err := tab.Group(gp(4))
	if err != nil {
		t.Fatal(err)
	}
	if p4.LatencyMs >= p1.LatencyMs {
		t.Fatalf("4-way parallel (%.0f ms) should beat single-function (%.0f ms)", p4.LatencyMs, p1.LatencyMs)
	}
	if len(p4.WorkerMs) != 4 {
		t.Fatalf("worker count %d, want 4", len(p4.WorkerMs))
	}
}

func TestPredictGroupMasterParticipation(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg16")
	opt := partition.Option{Dim: partition.DimSpatial, Parts: 4}
	tab := m.Table(units, 1)
	without, err := tab.Group(partition.GroupPlan{First: 0, Last: 2, Option: opt})
	if err != nil {
		t.Fatal(err)
	}
	with, err := tab.Group(partition.GroupPlan{First: 0, Last: 2, Option: opt, OnMaster: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(with.WorkerMs) != 3 || len(without.WorkerMs) != 4 {
		t.Fatalf("worker counts %d/%d, want 3/4", len(with.WorkerMs), len(without.WorkerMs))
	}
	// Master participation uploads one slab fewer.
	if with.UploadMs >= without.UploadMs {
		t.Fatalf("master participation should reduce upload: %.1f vs %.1f", with.UploadMs, without.UploadMs)
	}
}

func TestPredictGroupOOM(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "wrn34-5") // 2.1 GB of weights
	full := partition.GroupPlan{
		First: 0, Last: len(units) - 1,
		Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
		OnMaster: true,
	}
	pred, err := m.Table(units, 1).Group(full)
	if err != nil {
		t.Fatal(err)
	}
	if !pred.OOM {
		t.Fatal("WRN-34-5 whole-model group must OOM a 1.4 GB budget")
	}
	if !strings.Contains(pred.OOMReason, "budget") {
		t.Fatalf("OOM reason unhelpful: %q", pred.OOMReason)
	}
}

func TestPredictDefaultMatchesPaperOOMFrontier(t *testing.T) {
	m := lambda(t)
	cases := map[string]bool{ // model → should fit
		"vgg19":   true,
		"wrn34-4": true,
		"wrn50-3": true,
		"wrn34-5": false,
		"wrn50-4": false,
		"rnn9":    true,
		"rnn10":   false,
	}
	for name, fits := range cases {
		units := unitsOf(t, name)
		pred, err := m.PredictPlan(units, partition.DefaultPlan(name, units))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if pred.OOM == fits {
			t.Errorf("%s: OOM=%v, paper says fits=%v", name, pred.OOM, fits)
		}
	}
}

func TestPredictPlanCostAccounting(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg11")
	plan := &partition.Plan{Model: "vgg11", Groups: []partition.GroupPlan{
		{First: 0, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	pred, err := m.PredictPlan(units, plan)
	if err != nil {
		t.Fatal(err)
	}
	if pred.OOM {
		t.Fatalf("vgg11 should fit: %s", pred.OOMReason)
	}
	// Master-only plan: cost = billed master duration only.
	if pred.BilledMs < int64(pred.LatencyMs) || pred.BilledMs > int64(pred.LatencyMs)+1 {
		t.Fatalf("billed %d vs latency %.1f", pred.BilledMs, pred.LatencyMs)
	}
	// Same plan on GCF granularity bills in 100 ms units.
	gcfModel, err := New(platform.GoogleCloudFunctions(), map[nn.Kind][]float64{}, m.Comm(), m.NetMBps())
	if err == nil {
		_ = gcfModel
		t.Fatal("expected error for empty layer models")
	}
}

func TestPredictPlanWorkerBilling(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg11")
	plan := &partition.Plan{Model: "vgg11", Groups: []partition.GroupPlan{
		{First: 0, Last: len(units) - 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}},
		{First: len(units) - 1, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	// vgg tail units (flatten/dense) are not spatial: find a valid split
	// instead — group [0..1] spatial, remainder on master.
	plan = &partition.Plan{Model: "vgg11", Groups: []partition.GroupPlan{
		{First: 0, Last: 1, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}},
		{First: 2, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	pred, err := m.PredictPlan(units, plan)
	if err != nil {
		t.Fatal(err)
	}
	var workerBilled int64
	for _, g := range pred.Groups {
		for _, w := range g.WorkerMs {
			workerBilled += int64(math.Ceil(w))
		}
	}
	if pred.BilledMs < int64(pred.LatencyMs)+workerBilled {
		t.Fatalf("billed %d must cover master %d + workers %d", pred.BilledMs, int64(pred.LatencyMs), workerBilled)
	}
}

func TestMaxCommMonotone(t *testing.T) {
	m := lambda(t)
	prev := 0.0
	for _, n := range []int{1, 2, 4, 8, 16} {
		v := m.MaxCommMs(n)
		if v <= prev {
			t.Fatalf("MaxCommMs(%d)=%v not increasing", n, v)
		}
		prev = v
	}
	if m.MaxCommMs(0) != 0 {
		t.Fatal("MaxCommMs(0) should be 0")
	}
}

// Fig. 7's qualitative shape: for a fixed group, latency on Lambda improves
// with a few workers then degrades at 16, while KNIX (fast interactions)
// keeps improving or flattens.
func TestParallelismSweetSpot(t *testing.T) {
	mLam := lambda(t)
	mKnix, err := Build(platform.KNIX(), 3, 2, 300)
	if err != nil {
		t.Fatal(err)
	}
	// Group the three 256-channel 56×56 convolutions of VGG-16 (units 6-8):
	// compute-heavy with a modest input slab, like the paper's Fig. 7 probe.
	units := unitsOf(t, "vgg16")
	lat := func(m *Model, parts int) float64 {
		gp := partition.GroupPlan{First: 6, Last: 8, Option: partition.Option{Dim: partition.DimSpatial, Parts: parts}}
		if parts == 1 {
			gp.Option = partition.Option{Dim: partition.DimNone, Parts: 1}
			gp.OnMaster = true
		}
		pred, err := m.Table(units, 1).Group(gp)
		if err != nil {
			t.Fatal(err)
		}
		return pred.LatencyMs
	}
	lam1, lam8, lam16 := lat(mLam, 1), lat(mLam, 8), lat(mLam, 16)
	if lam8 >= lam1 {
		t.Fatalf("lambda: 8 workers (%.1f) should beat 1 (%.1f)", lam8, lam1)
	}
	if lam16 <= lam8 {
		t.Fatalf("lambda: going from 8 (%.1f) to 16 (%.1f) workers should do more harm than good — Fig. 7", lam8, lam16)
	}
	knix8, knix16 := lat(mKnix, 8), lat(mKnix, 16)
	knixDegrade := (knix16 - knix8) / knix8
	lamDegrade := (lam16 - lam8) / lam8
	if knixDegrade >= lamDegrade {
		t.Fatalf("KNIX should degrade less at 16 workers: knix %.2f vs lambda %.2f", knixDegrade, lamDegrade)
	}
}

func TestWithPriors(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg19")

	if _, err := m.WithPriors(Priors{ComputeScale: 0, CommScale: 1}); err == nil {
		t.Fatal("expected non-positive ComputeScale error")
	}
	if _, err := m.WithPriors(Priors{ComputeScale: 1, CommScale: -2}); err == nil {
		t.Fatal("expected non-positive CommScale error")
	}

	// Identity priors reproduce the fitted model's predictions exactly.
	id, err := m.WithPriors(Priors{ComputeScale: 1, CommScale: 1})
	if err != nil {
		t.Fatal(err)
	}
	base, err := m.UnitTimeMs(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := id.UnitTimeMs(units[0]); got != base {
		t.Errorf("identity priors changed compute: %v vs %v", got, base)
	}
	if id.Comm() != m.Comm() {
		t.Errorf("identity priors changed comm: %+v vs %+v", id.Comm(), m.Comm())
	}

	// A 2x compute prior doubles per-unit compute predictions and leaves
	// the receiver untouched.
	scaled, err := m.WithPriors(Priors{ComputeScale: 2, CommScale: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	got, err := scaled.UnitTimeMs(units[0])
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2*base) > 1e-9*base {
		t.Errorf("2x compute prior: %v, want %v", got, 2*base)
	}
	if after, _ := m.UnitTimeMs(units[0]); after != base {
		t.Errorf("receiver mutated by WithPriors: %v vs %v", after, base)
	}

	// The comm prior scales the EMG mean (Mu + 1/Lambda) linearly and
	// keeps the distribution valid.
	if err := scaled.Comm().Validate(); err != nil {
		t.Fatalf("scaled comm invalid: %v", err)
	}
	baseMean := m.Comm().Mu + 1/m.Comm().Lambda
	scaledMean := scaled.Comm().Mu + 1/scaled.Comm().Lambda
	if math.Abs(scaledMean-1.5*baseMean) > 1e-9*baseMean {
		t.Errorf("comm mean scaled to %v, want %v", scaledMean, 1.5*baseMean)
	}

	// Plan predictions under inflated priors dominate the fitted ones —
	// the property replanning relies on.
	plan := &partition.Plan{
		Model: "vgg19",
		Groups: []partition.GroupPlan{{
			First: 0, Last: len(units) - 1,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}},
	}
	pBase, err := m.PredictPlan(units, plan)
	if err != nil {
		t.Fatal(err)
	}
	pScaled, err := scaled.PredictPlan(units, plan)
	if err != nil {
		t.Fatal(err)
	}
	if pScaled.LatencyMs <= pBase.LatencyMs {
		t.Errorf("inflated priors must inflate latency: %v vs %v", pScaled.LatencyMs, pBase.LatencyMs)
	}
}
