package core

import (
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
)

var updatePin = flag.Bool("update", false, "rewrite the pinned goldens in testdata")

// TestPredictionsPinned pins the float bits of the performance model's plan
// predictions — a table's Plan at batch 1 and 4, and PredictPlanTail over
// 500 trials — on the Lambda latency-optimal plans of six zoo models and on
// one hand-built VGG-11 plan that takes every branch: spatial and channel
// groups with and without the master, a whole group on a worker and one on
// the master. The plans themselves are pinned with them. Anything that
// reorganises how a group is split into partitions or priced must leave this
// file unchanged.
//
// The profiler probes no depthwise convolution and no concatenation, so
// mobilenet-mini and inception-mini are planned and priced on a roofline
// model of the same platform: every kind costs the op overhead plus its
// FLOPs at the platform's GFLOP/s and its bytes at its memory bandwidth.
func TestPredictionsPinned(t *testing.T) {
	m := lambdaModel(t)
	cfg := m.Platform()
	roof := []float64{cfg.OpOverheadMs, 1e3 / cfg.GFLOPS, 1 / cfg.MemGBps}
	layers := make(map[nn.Kind][]float64)
	for _, k := range []nn.Kind{nn.KindConv, nn.KindBatchNorm, nn.KindReLU, nn.KindMaxPool, nn.KindAvgPool,
		nn.KindGlobalAvgPool, nn.KindDense, nn.KindFlatten, nn.KindAdd, nn.KindSoftmax, nn.KindLSTM,
		nn.KindTakeLast, nn.KindConcat, nn.KindDepthwiseConv} {
		layers[k] = roof
	}
	roofline, err := perf.New(cfg, layers, cfg.InvokeOverhead, m.NetMBps())
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	for _, c := range []struct {
		name string
		m    *perf.Model
	}{{"vgg11", m}, {"resnet34", m}, {"resnet50", m}, {"mobilenet-mini", roofline}, {"inception-mini", roofline}, {"rnn-tiny2", m}} {
		units := unitsOf(t, c.name)
		plan, _, err := LatencyOptimal(c.m, units, Config{})
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		pinPlan(t, &sb, c.m, units, plan, 1, 4)
	}
	units := unitsOf(t, "vgg11")
	spatial := func(p int) partition.Option { return partition.Option{Dim: partition.DimSpatial, Parts: p} }
	channel := func(p int) partition.Option { return partition.Option{Dim: partition.DimChannel, Parts: p} }
	whole := partition.Option{Dim: partition.DimNone, Parts: 1}
	pinPlan(t, &sb, m, units, &partition.Plan{Model: "vgg11-every-branch", Groups: []partition.GroupPlan{
		{First: 0, Last: 1, Option: spatial(4), OnMaster: true},
		{First: 2, Last: 3, Option: spatial(2)},
		{First: 4, Last: 4, Option: channel(4), OnMaster: true},
		{First: 5, Last: 13, Option: whole},
		{First: 14, Last: 14, Option: channel(8)},
		{First: 15, Last: 15, Option: channel(2), OnMaster: true},
		{First: 16, Last: 17, Option: whole, OnMaster: true},
	}}, 1, 4, 256) // the whole group on a worker runs out of memory at 256

	checkPin(t, "testdata/predictions.golden", sb.String())
}

// checkPin compares got with the golden file at path, or rewrites the file
// under -update.
func checkPin(t *testing.T, path, got string) {
	t.Helper()
	if *updatePin {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

func pinPlan(t *testing.T, sb *strings.Builder, m *perf.Model, units []*partition.Unit, plan *partition.Plan, batches ...int) {
	t.Helper()
	sb.WriteString(plan.String())
	for _, batch := range batches {
		bp, err := m.Table(units, batch).Plan(plan)
		if err != nil {
			t.Fatalf("%s batch %d: %v", plan.Model, batch, err)
		}
		fmt.Fprintf(sb, "  batch %d: latency %s billed %d oom %v %q\n", batch, bits(bp.LatencyMs), bp.BilledMs, bp.OOM, bp.OOMReason)
		for gi, g := range bp.Groups {
			fmt.Fprintf(sb, "    group %d: latency %s up %s over %s down %s oom %v workers",
				gi, bits(g.LatencyMs), bits(g.UploadMs), bits(g.OverheadMs), bits(g.DownloadMs), g.OOM)
			for _, w := range g.WorkerMs {
				sb.WriteString(" " + bits(w))
			}
			sb.WriteString("\n")
		}
	}
	tail, err := m.PredictPlanTail(units, plan, 500)
	if err != nil {
		t.Fatalf("%s tail: %v", plan.Model, err)
	}
	fmt.Fprintf(sb, "  tail: mean %s p50 %s p95 %s p99 %s\n",
		bits(tail.MeanMs), bits(tail.P50Ms), bits(tail.P95Ms), bits(tail.P99Ms))
}

// bits renders a float readably and exactly.
func bits(v float64) string { return fmt.Sprintf("%.6g/%016x", v, math.Float64bits(v)) }
