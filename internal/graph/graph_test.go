package graph

import (
	"testing"

	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// tinyChain builds input[1,6,6] -> conv3x3(pad1) -> relu -> maxpool2/2.
func tinyChain() *Graph {
	g := New("tiny", []int{1, 6, 6})
	g.MustAdd(nn.NewConv2D("conv1", 1, 2, 3, 1, 1))
	g.MustAdd(nn.NewReLU("relu1"))
	g.MustAdd(nn.NewMaxPool2D("pool1", 2, 2, 0))
	return g
}

// tinyResidual builds a residual block: conv -> (conv, identity) -> add.
func tinyResidual() *Graph {
	g := New("res", []int{2, 4, 4})
	stem := g.MustAdd(nn.NewConv2D("stem", 2, 2, 3, 1, 1))
	branch := g.MustAdd(nn.NewConv2D("branch", 2, 2, 3, 1, 1), stem)
	g.MustAdd(nn.NewAdd("add"), branch, stem)
	return g
}

func TestAddDefaultsToPreviousNode(t *testing.T) {
	g := tinyChain()
	if got := g.Node(1).Inputs[0]; got != 0 {
		t.Fatalf("relu should consume conv, got input %d", got)
	}
	if got := g.Node(0).Inputs[0]; got != InputID {
		t.Fatalf("first node should consume graph input, got %d", got)
	}
}

func TestAddRejectsBadInputs(t *testing.T) {
	g := New("g", []int{1, 4, 4})
	if _, err := g.Add(nn.NewReLU("r"), 5); err == nil {
		t.Fatal("expected forward-reference error")
	}
	if _, err := g.Add(nil); err == nil {
		t.Fatal("expected nil-op error")
	}
}

func TestShapesAndValidate(t *testing.T) {
	g := tinyChain()
	shapes, err := g.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	want := [][]int{{2, 6, 6}, {2, 6, 6}, {2, 3, 3}}
	for i, s := range want {
		if !tensor.ShapeEqual(shapes[i], s) {
			t.Fatalf("node %d shape %v, want %v", i, shapes[i], s)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsDuplicateNames(t *testing.T) {
	g := New("g", []int{1, 4, 4})
	g.MustAdd(nn.NewReLU("x"))
	g.MustAdd(nn.NewReLU("x"))
	if err := g.Validate(); err == nil {
		t.Fatal("expected duplicate-name error")
	}
}

func TestValidateRejectsShapeErrors(t *testing.T) {
	g := New("g", []int{3, 8, 8})
	g.MustAdd(nn.NewConv2D("c", 4, 8, 3, 1, 1)) // wrong input channels
	if err := g.Validate(); err == nil {
		t.Fatal("expected shape error")
	}
}

func TestForwardChain(t *testing.T) {
	g := tinyChain()
	g.Init(42)
	x := tensor.Full(1, 1, 6, 6)
	out, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out.Shape(), []int{2, 3, 3}) {
		t.Fatalf("out shape %v", out.Shape())
	}
	// ReLU then maxpool of ReLU output: all outputs non-negative.
	for _, v := range out.Data() {
		if v < 0 {
			t.Fatalf("negative value after relu+maxpool: %v", v)
		}
	}
}

func TestForwardResidualMatchesManual(t *testing.T) {
	g := tinyResidual()
	g.Init(7)
	x := tensor.Full(0.5, 2, 4, 4)
	out, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	stem, err := g.Node(0).Op.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	branch, err := g.Node(1).Op.Forward(stem)
	if err != nil {
		t.Fatal(err)
	}
	want := branch.Clone()
	if err := want.AddInPlace(stem); err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out, want) {
		t.Fatal("residual forward mismatch")
	}
}

func TestForwardRejectsBadInput(t *testing.T) {
	g := tinyChain()
	g.Init(1)
	if _, err := g.Forward(tensor.New(1, 5, 5)); err == nil {
		t.Fatal("expected input-shape error")
	}
	if _, err := New("empty", []int{1}).Forward(tensor.New(1)); err == nil {
		t.Fatal("expected empty-graph error")
	}
}

func TestInitDeterministic(t *testing.T) {
	a, b := tinyChain(), tinyChain()
	a.Init(99)
	b.Init(99)
	x := tensor.Full(0.25, 1, 6, 6)
	oa, err := a.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	ob, err := b.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(oa, ob) {
		t.Fatal("same seed must produce identical weights")
	}
	if !a.Initialized() {
		t.Fatal("graph should report initialized")
	}
	if tinyChain().Initialized() {
		t.Fatal("fresh graph should not report initialized")
	}
}

func TestParamAndFLOPAccounting(t *testing.T) {
	g := tinyChain()
	wantParams := int64(2*1*9 + 2) // conv weights + bias
	if g.ParamCount() != wantParams {
		t.Fatalf("params %d, want %d", g.ParamCount(), wantParams)
	}
	if g.ParamBytes() != wantParams*4 {
		t.Fatal("ParamBytes mismatch")
	}
	fl, err := g.FLOPs()
	if err != nil {
		t.Fatal(err)
	}
	convFl := nn.NewConv2D("c", 1, 2, 3, 1, 1).FLOPs([]int{1, 6, 6})
	reluFl := int64(2 * 6 * 6)
	poolFl := int64(2*3*3) * 4
	if fl != convFl+reluFl+poolFl {
		t.Fatalf("FLOPs %d, want %d", fl, convFl+reluFl+poolFl)
	}
}

func TestConsumers(t *testing.T) {
	g := tinyResidual()
	cons, err := g.Consumers()
	if err != nil {
		t.Fatal(err)
	}
	if len(cons[0]) != 2 {
		t.Fatalf("stem should have two consumers, got %v", cons[0])
	}
	if len(cons[InputID]) != 1 {
		t.Fatalf("graph input should have one consumer, got %v", cons[InputID])
	}
}

func TestInShapeReturnsCopy(t *testing.T) {
	g := New("g", []int{1, 2, 3})
	s := g.InShape()
	s[0] = 9
	if g.InShape()[0] != 1 {
		t.Fatal("InShape must return a copy")
	}
}
