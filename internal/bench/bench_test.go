package bench

import (
	"math"
	"strings"
	"testing"

	"gillis/internal/partition"
	"gillis/internal/platform"
)

// quickCtx returns a trimmed context for fast experiment smoke tests.
func quickCtx() *Context {
	ctx := NewContext(7)
	ctx.Quick = true
	ctx.Queries = 15
	return ctx
}

// TestOOMCellIsTheBudgetErrorOnly: a cell reads OOM when the deployment broke
// the memory budget (runtime.ErrOOM), not when some other failure's text
// happens to contain the letters — here every invocation of a deployment
// named OOM fails, and the cell must read ERR.
func TestOOMCellIsTheBudgetErrorOnly(t *testing.T) {
	ctx := quickCtx()
	cfg := platform.AWSLambda()
	big, err := ctx.Units("wrn50-5")
	if err != nil {
		t.Fatal(err)
	}
	if m := measureDefault(cfg, 1, big, 3); !m.OOM || fmtMs(m) != "OOM" {
		t.Errorf("wrn50-5 in one function: want an OOM cell, got %+v", m)
	}
	small, err := ctx.Units("mobilenet-mini")
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = platform.FaultProfile{FailureProb: 1}
	m := measurePlan(cfg, 1, small, partition.DefaultPlan("OOM", small), 3)
	if !strings.Contains(m.Err, "OOM") {
		t.Fatalf("the failing function's name should be in the error: %q", m.Err)
	}
	if m.OOM || fmtMs(m) != "ERR" {
		t.Errorf("a failed invocation is not out of memory: %+v", m)
	}
}

func TestFig1ShapesMatchPaper(t *testing.T) {
	ctx := NewContext(7)
	ctx.Queries = 15
	res, err := Fig1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("want 5 widening points, got %d", len(res.Rows))
	}
	// Latency grows superlinearly with widening.
	if !(res.Rows[1].Lambda.MeanMs > 2.5*res.Rows[0].Lambda.MeanMs) {
		t.Errorf("widening 2 should be >2.5x widening 1: %v vs %v",
			res.Rows[1].Lambda.MeanMs, res.Rows[0].Lambda.MeanMs)
	}
	// Paper: >2000 ms at widening 3 (Lambda); OOM afterwards.
	if res.Rows[2].Lambda.MeanMs < 2000 {
		t.Errorf("lambda widening 3 should exceed 2000 ms, got %v", res.Rows[2].Lambda.MeanMs)
	}
	if !res.Rows[3].Lambda.OOM || !res.Rows[4].Lambda.OOM {
		t.Error("lambda should OOM at widening 4 and 5")
	}
	if res.Rows[3].GCF.OOM || !res.Rows[4].GCF.OOM {
		t.Error("GCF should fit widening 4 but OOM at 5")
	}
	if !strings.Contains(res.Table(), "OOM") {
		t.Error("table should render OOM cells")
	}
}

func TestFig7ShapesMatchPaper(t *testing.T) {
	ctx := NewContext(7)
	ctx.Queries = 30
	res, err := Fig7(ctx)
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]Fig7Row{}
	for _, r := range res.Rows {
		byN[r.Functions] = r
	}
	if !(byN[8].Lambda.MeanMs < byN[1].Lambda.MeanMs) {
		t.Error("lambda: 8 functions should beat 1")
	}
	if !(byN[16].Lambda.MeanMs > byN[8].Lambda.MeanMs) {
		t.Errorf("lambda: 16 functions (%v) should be worse than 8 (%v) — the paper's 8→16 harm",
			byN[16].Lambda.MeanMs, byN[8].Lambda.MeanMs)
	}
	if !(byN[16].KNIX.MeanMs < byN[8].KNIX.MeanMs) {
		t.Errorf("knix: 16 (%v) should still beat 8 (%v)", byN[16].KNIX.MeanMs, byN[8].KNIX.MeanMs)
	}
}

func TestFig9QuickSpeedups(t *testing.T) {
	res, err := Fig9(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Speedup < 1.2 {
			t.Errorf("%s/%s: speedup %.2f below the paper's band", row.Model, row.Platform, row.Speedup)
		}
	}
}

func TestFig10KNIXBeatsLambdaSpeedups(t *testing.T) {
	ctx := quickCtx()
	knix, err := Fig10(ctx)
	if err != nil {
		t.Fatal(err)
	}
	lam, err := Fig9(ctx)
	if err != nil {
		t.Fatal(err)
	}
	var knixVGG, lamVGG float64
	for _, r := range knix.Rows {
		if r.Model == "vgg16" {
			knixVGG = r.Speedup
		}
	}
	for _, r := range lam.Rows {
		if r.Model == "vgg16" && r.Platform == "lambda" {
			lamVGG = r.Speedup
		}
	}
	if knixVGG <= lamVGG {
		t.Errorf("KNIX should enable more speedup than Lambda (%.2f vs %.2f)", knixVGG, lamVGG)
	}
	// Thin ResNets accelerate on KNIX (they fail to on Lambda, §V-B).
	for _, r := range knix.Rows {
		if r.Model == "resnet50" && r.Speedup < 1.2 {
			t.Errorf("resnet50 on KNIX should accelerate, got %.2f", r.Speedup)
		}
	}
}

func TestFig11PipelineDominatedByLoading(t *testing.T) {
	res, err := Fig11(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.Speedup < 5 {
			t.Errorf("%s: Gillis should beat Pipeline by a large factor, got %.1f", row.Model, row.Speedup)
		}
		if row.PipelineLoadMs < row.PipelineComputeMs {
			t.Errorf("%s: pipeline should be network-dominated", row.Model)
		}
	}
}

// TestFig11PipelinePinned pins the bits of Fig 11's Pipeline columns — mean
// latency, and its compute and weight-loading split read off the trace —
// over five warm queries on two of its models, one of two groups and one of
// three. A change to how the Pipeline plan is packed, streamed or split moves
// them, and with them the figure's table in BENCH_paper.txt.
func TestFig11PipelinePinned(t *testing.T) {
	ctx := NewContext(7)
	cfg, err := platform.ByName("lambda")
	if err != nil {
		t.Fatal(err)
	}
	for i, want := range []struct {
		model                  string
		mean, compute, loading uint64
	}{
		{"wrn34-5", 0x40e0ea991f23b1b6, 0x40c2712c3a1aae02, 0x40d89c9c213a0c6c}, // 34644.785 ms: compute 9442.346, loading 25202.440
		{"wrn50-5", 0x40e2e27ecc88036f, 0x40c47bd0301c277e, 0x40db87158101f31e}, // 38675.962 ms: compute 10487.626, loading 28188.336
	} {
		units, err := ctx.Units(want.model)
		if err != nil {
			t.Fatal(err)
		}
		mean, compute, loading, err := measurePipeline(cfg, 7+int64(i), units, 5)
		if err != nil {
			t.Fatal(err)
		}
		if got := [3]uint64{math.Float64bits(mean), math.Float64bits(compute), math.Float64bits(loading)}; got != [3]uint64{want.mean, want.compute, want.loading} {
			t.Errorf("%s: pipeline %v ms, compute %v, loading %v: bits %#x, want %#x", want.model, mean, compute, loading,
				got, [3]uint64{want.mean, want.compute, want.loading})
		}
	}
}

func TestFig12LinearScalingAndOOM(t *testing.T) {
	res, err := Fig12(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	byN := map[int]Fig12Row{}
	for _, r := range res.Rows {
		byN[r.Layers] = r
	}
	if byN[3].Default.OOM {
		t.Error("rnn3 should fit a single function")
	}
	if !byN[10].Default.OOM {
		t.Error("rnn10 should OOM a single function (paper: up to 9 layers)")
	}
	if byN[10].Gillis.MeanMs <= 0 {
		t.Error("gillis must serve rnn10")
	}
	// Roughly linear: latency per layer comparable across depths.
	perLayer3 := byN[3].Gillis.MeanMs / 3
	perLayer10 := byN[10].Gillis.MeanMs / 10
	if perLayer10 > perLayer3*1.3 {
		t.Errorf("per-layer latency grew too much: %.1f → %.1f", perLayer3, perLayer10)
	}
}

func TestFig13QuickSLOCompliance(t *testing.T) {
	res, err := Fig13(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	foundSA := false
	for _, row := range res.Rows {
		if row.Algorithm == "SA" {
			foundSA = true
			if !row.SLOMet {
				t.Errorf("SA must meet the SLO for %s at %.0f ms (got %.0f)", row.Model, row.TmaxMs, row.Latency.MeanMs)
			}
		}
	}
	if !foundSA {
		t.Fatal("no SA rows")
	}
}

func TestFig14GroupingObservations(t *testing.T) {
	res, err := Fig14(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) < 3 {
		t.Fatalf("expected several groups, got %d", len(res.Groups))
	}
	first, last := res.Groups[0], res.Groups[len(res.Groups)-1]
	// Observation 1: bottom groups fuse more layers than top conv groups.
	if first.Units < 2 {
		t.Errorf("bottom group should fuse multiple units, got %d", first.Units)
	}
	// Observation 2: low layers parallelize across at least as many
	// functions as high layers.
	if first.Functions < last.Functions {
		t.Errorf("bottom group functions %d < top group %d", first.Functions, last.Functions)
	}
	// Observation 3: the master computes some low-group partitions.
	masterAny := false
	for _, g := range res.Groups {
		if g.OnMaster {
			masterAny = true
		}
	}
	if !masterAny {
		t.Error("master should compute some partitions")
	}
}

func TestFig15AccuracyBands(t *testing.T) {
	ctx := quickCtx()
	ctx.Queries = 40
	res, err := Fig15(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Runtime {
		if r.ErrPct > 9 {
			t.Errorf("model runtime error %.1f%% for %s exceeds the paper's 9%%", r.ErrPct, r.Model)
		}
	}
	for _, r := range res.Comm {
		if r.ErrPct > 15 {
			t.Errorf("comm delay error %.1f%% at n=%d too high", r.ErrPct, r.Workers)
		}
	}
	for _, r := range res.E2E {
		if r.ErrPct > 8 {
			t.Errorf("end-to-end error %.1f%% for %s exceeds the paper's band", r.ErrPct, r.Model)
		}
	}
}

func TestTablesRender(t *testing.T) {
	ctx := quickCtx()
	r1, err := Fig1(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r1.Table(), "Fig 1") {
		t.Error("fig1 table missing title")
	}
	r14, err := Fig14(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r14.Table(), "group") {
		t.Error("fig14 table missing header")
	}
}
