package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// buildConvBNReluNet is a small CNN exercising every fusion pattern:
// conv+bn+relu, conv+relu, a residual branch that must NOT fuse (the conv
// output has two consumers), dense+relu, and a redundant relu chain.
func buildConvBNReluNet(t *testing.T) *Graph {
	t.Helper()
	g := New("fusenet", []int{3, 16, 16})
	c1 := g.MustAdd(nn.NewConv2D("c1", 3, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("b1", 8))
	g.MustAdd(nn.NewReLU("r1"))
	c2 := g.MustAdd(nn.NewConv2D("c2", 8, 8, 3, 1, 1)) // two consumers: no fusion
	r2 := g.MustAdd(nn.NewReLU("r2"), c2)
	g.MustAdd(nn.NewAdd("add"), c2, r2)
	g.MustAdd(nn.NewConv2D("c3", 8, 12, 3, 1, 1))
	g.MustAdd(nn.NewReLU("r3"))
	g.MustAdd(nn.NewReLU("r3b")) // relu∘relu collapses
	g.MustAdd(nn.NewFlatten("fl"))
	g.MustAdd(nn.NewDense("fc", 12*16*16, 10))
	g.MustAdd(nn.NewReLU("r4"))
	g.MustAdd(nn.NewSoftmax("sm"))
	_ = c1
	return g
}

func TestFuseRewritesKnownPatterns(t *testing.T) {
	g := buildConvBNReluNet(t)
	g.Init(7)
	fused, eliminated, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	// Absorbed: b1, r1 (into c1), r3 (into c3), r3b (collapsed), r4 (into fc).
	if want := 5; eliminated != want {
		t.Fatalf("eliminated %d nodes, want %d", eliminated, want)
	}
	kinds := map[string]int{}
	for _, n := range fused.Nodes() {
		kind := fmt.Sprintf("%T", n.Op)
		switch op := n.Op.(type) {
		case *nn.Conv2D:
			kind = fmt.Sprintf("conv bn=%v relu=%v", op.Scale != nil, op.Relu)
		case *nn.Dense:
			kind = fmt.Sprintf("dense relu=%v", op.Relu)
		}
		kinds[kind]++
	}
	want := map[string]int{
		"conv bn=true relu=true":  1, // c1, b1, r1
		"conv bn=false relu=true": 1, // c3, r3 (r3b collapsed)
		"dense relu=true":         1, // fc, r4
		// c2 feeds two consumers; it must survive unfused alongside its ReLU.
		"conv bn=false relu=false": 1,
		"*nn.ReLU":                 1,
		"*nn.Add":                  1,
		"*nn.Flatten":              1,
		"*nn.Softmax":              1,
	}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("fused graph has nodes %v, want %v", kinds, want)
	}
	// A fused layer is a copy that shares the original's weights.
	if c1 := fused.Node(0).Op.(*nn.Conv2D); c1 == g.Node(0).Op || c1.W != g.Node(0).Op.(*nn.Conv2D).W {
		t.Fatal("fused c1 is not a copy sharing the original's W")
	}
	x := tensor.Rand(rand.New(rand.NewSource(3)), 1, 3, 16, 16)
	assertFuseIdempotent(t, fused, x)
	if fl, fu := mustFLOPs(t, fused), mustFLOPs(t, g); fl >= fu {
		t.Fatalf("fused FLOPs %d not below unfused %d", fl, fu)
	}
	if fused.ParamCount() >= g.ParamCount() {
		t.Fatalf("fused params %d not below unfused %d", fused.ParamCount(), g.ParamCount())
	}
}

func mustFLOPs(t *testing.T, g *Graph) int64 {
	t.Helper()
	f, err := g.FLOPs()
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// assertFuseIdempotent checks that fusing the fused graph again eliminates no
// node, leaves every op as it is, and forwards x to the same bits: a fused
// layer is still a Conv2D or Dense, and one with an epilogue absorbs nothing.
func assertFuseIdempotent(t *testing.T, fused *Graph, x *tensor.Tensor) {
	t.Helper()
	again, eliminated, err := Fuse(fused)
	if err != nil {
		t.Fatal(err)
	}
	if eliminated != 0 || again.Len() != fused.Len() {
		t.Fatalf("Fuse(Fuse(g)) eliminated %d nodes (%d -> %d), want 0", eliminated, fused.Len(), again.Len())
	}
	for i, n := range fused.Nodes() {
		if again.Node(i).Op != n.Op {
			t.Fatalf("Fuse(Fuse(g)) rewrote node %d (%s)", i, n.Op.Name())
		}
	}
	want, err := fused.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := again.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("Fuse(Fuse(g)) forward differs from Fuse(g)")
	}
}

// TestFusePreservesOutputsOnRandomModels is the fusion property test: on
// randomly generated layer stacks, the fused graph must produce bitwise
// identical outputs to the original, at several parallelism levels, and
// fusing it again changes nothing.
func TestFusePreservesOutputsOnRandomModels(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			g, in := randomModel(rng)
			g.Init(seed + 100)
			fused, _, err := Fuse(g)
			if err != nil {
				t.Fatal(err)
			}
			restore := par.SetParallelism(1)
			want, err := g.Forward(in)
			restore()
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []int{1, 3, 8} {
				restore := par.SetParallelism(p)
				got, err := fused.Forward(in)
				restore()
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if !tensor.Equal(got, want) {
					t.Fatalf("p=%d: fused forward diverged from unfused graph", p)
				}
			}
			assertFuseIdempotent(t, fused, in)
		})
	}
}

// randomModel generates a random conv stack with interleaved BatchNorm/ReLU
// in random combinations, ending in flatten + dense (+ optional relu).
func randomModel(rng *rand.Rand) (*Graph, *tensor.Tensor) {
	c, h, w := 3, 13, 13
	g := New("rand", []int{c, h, w})
	layers := 1 + rng.Intn(4)
	for i := 0; i < layers; i++ {
		outC := 4 + rng.Intn(9)
		g.MustAdd(nn.NewConv2D(fmt.Sprintf("c%d", i), c, outC, 3, 1, 1))
		c = outC
		if rng.Intn(2) == 0 {
			g.MustAdd(nn.NewBatchNorm(fmt.Sprintf("b%d", i), c))
		}
		for r := 0; r < rng.Intn(3); r++ { // zero, one, or chained ReLUs
			g.MustAdd(nn.NewReLU(fmt.Sprintf("r%d_%d", i, r)))
		}
		if rng.Intn(3) == 0 { // a BatchNorm after the ReLUs, if any
			g.MustAdd(nn.NewBatchNorm(fmt.Sprintf("a%d", i), c))
		}
	}
	g.MustAdd(nn.NewFlatten("fl"))
	g.MustAdd(nn.NewDense("fc", c*h*w, 5+rng.Intn(10)))
	if rng.Intn(2) == 0 {
		g.MustAdd(nn.NewReLU("rf"))
	}
	return g, tensor.Rand(rng, 1, 3, h, w)
}

// TestFuseUninitializedBNLeftAlone: folding needs materialized statistics;
// an uninitialized graph must round-trip through Fuse without BN folding
// (ReLU-only rewrites are still fine).
func TestFuseUninitializedBNLeftAlone(t *testing.T) {
	g := New("uninit", []int{3, 8, 8})
	g.MustAdd(nn.NewConv2D("c", 3, 4, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("b", 4))
	g.MustAdd(nn.NewReLU("r"))
	fused, eliminated, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	if eliminated != 0 {
		t.Fatalf("eliminated %d nodes from an uninitialized graph, want 0", eliminated)
	}
	if fused.Len() != g.Len() {
		t.Fatalf("fused graph has %d nodes, want %d", fused.Len(), g.Len())
	}
}
