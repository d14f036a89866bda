package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// Batch-equivalence property suite: for randomly-drawn ops (≥12 seeds) and
// batch sizes {1,2,4,8} × parallelism {1,4}, the batched forward must be
// bitwise identical to running the per-query loop. This is the contract the
// gateway batcher and the throughput planner lean on — batching is purely a
// scheduling optimization, never a numerics change.

var batchSizes = []int{1, 2, 4, 8}

// randomBatchCases draws one instance of every batch-aware op kind with
// random dimensions from seed.
func randomBatchCases(t *testing.T, seed int64) []detCase {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mk := func(op Op) Op {
		op.Init(rng)
		return op
	}
	inC := 1 + rng.Intn(5)
	outC := 1 + rng.Intn(13)
	kern := 1 + 2*rng.Intn(2) // 1 or 3
	stride := 1 + rng.Intn(2)
	pad := rng.Intn(2)
	h, w := 7+rng.Intn(9), 7+rng.Intn(9)
	conv := mk(NewConv2D("c", inC, outC, kern, stride, pad)).(*Conv2D)
	bn := mk(NewBatchNorm("bn", outC)).(*BatchNorm)
	fconv, err := NewFusedConv2D(mk(NewConv2D("fc", inC, outC, kern, stride, pad)).(*Conv2D), bn, true)
	if err != nil {
		t.Fatal(err)
	}
	dIn, dOut := 9+rng.Intn(120), 3+rng.Intn(60)
	lIn, lHid := 5+rng.Intn(24), 4+rng.Intn(29)
	steps := 2 + rng.Intn(6)
	return []detCase{
		{"conv", conv, tensor.Rand(rng, 1, inC, h, w)},
		{"fused-conv-bn-relu", fconv, tensor.Rand(rng, 1, inC, h, w)},
		{"dense", mk(NewDense("d", dIn, dOut)), tensor.Rand(rng, 1, dIn)},
		{"fused-dense", NewFusedDense(mk(NewDense("fd", dIn, dOut)).(*Dense)), tensor.Rand(rng, 1, dIn)},
		{"lstm", mk(NewLSTM("l", lIn, lHid)), tensor.Rand(rng, 1, steps, lIn)},
	}
}

// batchInputs draws batch inputs shaped like proto.
func batchInputs(rng *rand.Rand, proto *tensor.Tensor, batch int) []*tensor.Tensor {
	xs := make([]*tensor.Tensor, batch)
	for e := range xs {
		xs[e] = tensor.Rand(rng, 1, proto.Shape()...)
	}
	return xs
}

func TestBatchForwardEquivalenceProperty(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			cases := randomBatchCases(t, 1000+seed)
			rng := rand.New(rand.NewSource(seed))
			for _, tc := range cases {
				for _, batch := range batchSizes {
					xs := batchInputs(rng, tc.in, batch)
					ins := make([][]*tensor.Tensor, batch)
					for e, x := range xs {
						ins[e] = []*tensor.Tensor{x}
					}
					restore := par.SetParallelism(1)
					want := make([]*tensor.Tensor, batch)
					for e, x := range xs {
						out, err := tc.op.Forward(x)
						if err != nil {
							restore()
							t.Fatalf("%s b=%d: %v", tc.name, batch, err)
						}
						want[e] = out
					}
					restore()
					for _, p := range []int{1, 4} {
						restore := par.SetParallelism(p)
						got, err := forwardBatch(tc.op, ins)
						restore()
						if err != nil {
							t.Fatalf("%s b=%d p=%d: %v", tc.name, batch, p, err)
						}
						if len(got) != batch {
							t.Fatalf("%s b=%d p=%d: got %d outputs", tc.name, batch, p, len(got))
						}
						for e := range got {
							if !tensor.Equal(got[e], want[e]) {
								t.Fatalf("%s b=%d p=%d: element %d is not bitwise identical to the per-query loop", tc.name, batch, p, e)
							}
						}
					}
				}
			}
		})
	}
}

// TestForwardBatchFallbackLoop pins the dispatcher's fallback paths: ops
// without a batched kernel, and batches that mix input shapes, go through
// the per-query loop and still match it bitwise.
func TestForwardBatchFallbackLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mp := NewMaxPool2D("mp", 3, 2, 1)
	conv := NewConv2D("c", 3, 5, 3, 1, 1)
	conv.Init(rng)
	cases := []struct {
		name string
		op   Op
		ins  [][]*tensor.Tensor
	}{
		{"no-batch-kernel", mp, [][]*tensor.Tensor{
			{tensor.Rand(rng, 1, 4, 11, 11)},
			{tensor.Rand(rng, 1, 4, 11, 11)},
		}},
		{"mixed-shapes", conv, [][]*tensor.Tensor{
			{tensor.Rand(rng, 1, 3, 11, 11)},
			{tensor.Rand(rng, 1, 3, 9, 13)},
		}},
	}
	for _, tc := range cases {
		got, err := forwardBatch(tc.op, tc.ins)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		for e, in := range tc.ins {
			want, err := tc.op.Forward(in...)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			if !tensor.Equal(got[e], want) {
				t.Fatalf("%s: fallback element %d diverged from Forward", tc.name, e)
			}
		}
	}
}

// TestForwardBatchEmpty pins the zero-batch edge cases.
func TestForwardBatchEmpty(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	d := NewDense("d", 5, 3)
	d.Init(rng)
	if err := ForwardBatchInto(d, nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := d.ForwardBatchInto(nil, nil); err != nil {
		t.Fatalf("empty Dense batch: %v", err)
	}
}

// TestConvGoldenBatched extends the hand-computed conv golden to the
// batched op: the known 3x3/2x2 case plus a second input whose answer is a
// scaled copy.
func TestConvGoldenBatched(t *testing.T) {
	c := NewConv2D("c", 1, 1, 2, 1, 0)
	c.W = tensor.Full(1, 1, 1, 2, 2)
	c.B = tensor.New(1)
	a := mustTensor(t, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	b := mustTensor(t, []float32{
		2, 4, 6,
		8, 10, 12,
		14, 16, 18,
	}, 1, 3, 3)
	outs, err := forwardBatch(c, [][]*tensor.Tensor{{a}, {b}})
	if err != nil {
		t.Fatal(err)
	}
	wantA := mustTensor(t, []float32{12, 16, 24, 28}, 1, 2, 2)
	wantB := mustTensor(t, []float32{24, 32, 48, 56}, 1, 2, 2)
	if !tensor.Equal(outs[0], wantA) || !tensor.Equal(outs[1], wantB) {
		t.Fatalf("batched conv golden mismatch: got %v and %v", outs[0].Data(), outs[1].Data())
	}
}
