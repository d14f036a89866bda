package models

import (
	"math"
	"math/rand"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/tensor"
)

// paramsM returns the model's parameter count in millions.
func paramsM(t *testing.T, name string) float64 {
	t.Helper()
	g, err := ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return float64(g.ParamCount()) / 1e6
}

// within asserts |got-want|/want <= tol.
func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want)/want > tol {
		t.Fatalf("%s: got %.2fM params, want %.2fM (±%.0f%%)", name, got, want, tol*100)
	}
}

// Published parameter counts (torchvision / original papers). BatchNorm
// running statistics count as stored scalars here, so allow a small
// tolerance.
func TestPublishedParameterCounts(t *testing.T) {
	within(t, "vgg11", paramsM(t, "vgg11"), 132.86, 0.01)
	within(t, "vgg16", paramsM(t, "vgg16"), 138.36, 0.01)
	within(t, "vgg19", paramsM(t, "vgg19"), 143.67, 0.01)
	within(t, "resnet34", paramsM(t, "resnet34"), 21.80, 0.02)
	within(t, "resnet50", paramsM(t, "resnet50"), 25.56, 0.02)
	within(t, "resnet101", paramsM(t, "resnet101"), 44.55, 0.02)
}

// The OOM frontier the paper reports (M = 1.4 GB usable weight budget,
// §V-A): WRN-34-4 and WRN-50-3 still fit in one function; WRN-34-5 and
// WRN-50-4/5 do not; RNN stacks fit up to 9 layers.
func TestOOMFrontierMatchesPaper(t *testing.T) {
	const budgetMB = 1400.0
	weightMB := func(name string) float64 { return paramsM(t, name) * 4 } // fp32

	fits := map[string]bool{
		"vgg19":   true,
		"wrn34-3": true,
		"wrn34-4": true,
		"wrn50-3": true,
		"wrn34-5": false,
		"wrn50-4": false,
		"wrn50-5": false,
		"rnn9":    true,
		"rnn10":   false,
	}
	for name, want := range fits {
		mb := weightMB(name)
		if got := mb <= budgetMB; got != want {
			t.Errorf("%s: weights %.0f MB, fits=%v, paper says fits=%v", name, mb, got, want)
		}
	}
}

func TestWideningGrowsQuadratically(t *testing.T) {
	p1 := paramsM(t, "resnet50")
	p3 := paramsM(t, "wrn50-3")
	// Conv params dominate and scale with k^2; allow generous bounds.
	if ratio := p3 / p1; ratio < 7 || ratio > 9.5 {
		t.Fatalf("WRN-50-3 / ResNet-50 param ratio %.2f outside quadratic range", ratio)
	}
}

func TestCNNOutputShapes(t *testing.T) {
	for _, name := range []string{"vgg11", "resnet34", "resnet50", "wrn34-2"} {
		g, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out, err := g.OutShape()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !tensor.ShapeEqual(out, []int{1000}) {
			t.Fatalf("%s output shape %v, want [1000]", name, out)
		}
	}
}

func TestRNNShapesAndParams(t *testing.T) {
	g, err := RNN(3)
	if err != nil {
		t.Fatal(err)
	}
	out, err := g.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out, []int{RNNVocab}) {
		t.Fatalf("rnn3 output shape %v", out)
	}
	// Each 2K LSTM layer stores ~33.6M scalars (134 MB fp32).
	perLayer := (paramsM(t, "rnn4") - paramsM(t, "rnn3")) // isolate one layer
	if perLayer < 33 || perLayer > 34.2 {
		t.Fatalf("per-layer LSTM params %.2fM, want ~33.6M", perLayer)
	}
}

func TestTinyForwardRuns(t *testing.T) {
	// A miniature RNN exercises the full LSTM + TakeLast + Dense + Softmax
	// path with real math, and the demo CNN its conv, pool and dense head.
	rnn, err := RNNCustom(2, 8, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		g  *graph.Graph
		in []int
	}{{rnn, []int{5, 8}}, {DemoCNN(), []int{3, 32, 32}}} {
		c.g.Init(1)
		out, err := c.g.Forward(tensor.Rand(rand.New(rand.NewSource(1)), 0.1, c.in...))
		if err != nil {
			t.Fatalf("%s: %v", c.g.Name, err)
		}
		var sum float32
		for _, v := range out.Data() {
			sum += v
		}
		if math.Abs(float64(sum)-1) > 1e-4 {
			t.Fatalf("%s: softmax output does not sum to 1: %v", c.g.Name, sum)
		}
	}
}

func TestByNameErrors(t *testing.T) {
	for _, bad := range []string{"vgg12", "resnet18", "wrn20-2", "bert", ""} {
		if _, err := ByName(bad); err == nil {
			t.Errorf("ByName(%q) should fail", bad)
		}
	}
}

func TestWideResNetRejectsBadScalar(t *testing.T) {
	if _, err := WideResNet(34, 0); err == nil {
		t.Fatal("expected error for k=0")
	}
}

func TestRNNRejectsBadLayerCount(t *testing.T) {
	if _, err := RNN(0); err == nil {
		t.Fatal("expected error for 0 layers")
	}
}
