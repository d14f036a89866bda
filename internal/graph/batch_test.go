package graph

import (
	"fmt"
	"math/rand"
	"testing"

	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// randomBatchModel draws a small CNN with a random depth, random residual
// block, and a dense head, then fuses it — so the batched walk exercises
// convolutions with a folded Conv+BN+ReLU epilogue, pooling fallbacks,
// Flatten, and a dense layer with a fused ReLU in one graph.
func randomBatchModel(t *testing.T, seed int64) *Graph {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	c := 1 + rng.Intn(3)
	hw := 8 + 2*rng.Intn(4)
	g := New(fmt.Sprintf("rnd%d", seed), []int{c, hw, hw})
	width := 4 + rng.Intn(8)
	g.MustAdd(nn.NewConv2D("stem", c, width, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem.bn", width))
	g.MustAdd(nn.NewReLU("stem.relu"))
	if rng.Intn(2) == 1 {
		stem := g.OutputID()
		br := g.MustAdd(nn.NewConv2D("res.conv", width, width, 3, 1, 1), stem)
		g.MustAdd(nn.NewAdd("res.add"), br, stem)
	}
	g.MustAdd(nn.NewMaxPool2D("pool", 2, 2, 0))
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewFlatten("flat"))
	g.MustAdd(nn.NewDense("fc", width, 3+rng.Intn(8)))
	g.MustAdd(nn.NewReLU("fc.relu"))
	g.Init(seed)
	fused, _, err := Fuse(g)
	if err != nil {
		t.Fatal(err)
	}
	return fused
}

// TestGraphForwardBatchEquivalenceProperty asserts, for ≥12 random fused
// models and batch sizes {1,2,4,8} × parallelism {1,4}, that the batched
// graph walk is bitwise identical to the per-query Forward loop.
func TestGraphForwardBatchEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := randomBatchModel(t, seed)
			rng := rand.New(rand.NewSource(100 + seed))
			for _, batch := range []int{1, 2, 4, 8} {
				xs := make([]*tensor.Tensor, batch)
				for e := range xs {
					xs[e] = tensor.Rand(rng, 1, g.InShape()...)
				}
				restore := par.SetParallelism(1)
				want := make([]*tensor.Tensor, batch)
				for e, x := range xs {
					out, err := g.Forward(x)
					if err != nil {
						restore()
						t.Fatal(err)
					}
					want[e] = out
				}
				restore()
				for _, p := range []int{1, 4} {
					restore := par.SetParallelism(p)
					got, err := g.ForwardBatch(xs, nil)
					restore()
					if err != nil {
						t.Fatalf("b=%d p=%d: %v", batch, p, err)
					}
					for e := range got {
						if !tensor.Equal(got[e], want[e]) {
							t.Fatalf("b=%d p=%d: element %d diverged from per-query Forward", batch, p, e)
						}
					}
				}
			}
		})
	}
}

// TestGraphForwardBatchValidation pins input-shape validation and the
// empty-batch edge, and forwardBatchIn's checks of the caller's outputs and
// arena.
func TestGraphForwardBatchValidation(t *testing.T) {
	g := tinyChain()
	g.Init(1)
	if _, err := g.ForwardBatch([]*tensor.Tensor{tensor.New(2, 6, 6)}, nil); err == nil {
		t.Fatal("expected shape error")
	}
	outs, err := g.ForwardBatch(nil, nil)
	if err != nil || outs != nil {
		t.Fatalf("empty batch: got %v, %v", outs, err)
	}

	bytes, err := g.ArenaBytes()
	if err != nil {
		t.Fatal(err)
	}
	arena := make([]float32, bytes/4)
	x := []*tensor.Tensor{tensor.New(1, 6, 6)}
	out := []*tensor.Tensor{tensor.New(2, 3, 3)}
	for name, call := range map[string]func() error{
		"empty graph":  func() error { return New("empty", []int{1}).forwardBatchIn(arena, x, x, nil) },
		"output count": func() error { return g.forwardBatchIn(arena, x, nil, nil) },
		"output shape": func() error { return g.forwardBatchIn(arena, x, x, nil) },
		"short arena":  func() error { return g.forwardBatchIn(arena[:len(arena)-1], x, out, nil) },
	} {
		if err := call(); err == nil {
			t.Errorf("%s: forwardBatchIn accepted it", name)
		}
	}
	if err := g.forwardBatchIn(arena, x, out, nil); err != nil {
		t.Fatalf("exact arena refused: %v", err)
	}
}
