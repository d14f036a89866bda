package nn

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// The partition layer's exactness proofs reduce to one kernel invariant:
// Forward output is bitwise identical at every parallelism level, because
// par.For only ever splits independent output elements, never a reduction.
// These tests pin that invariant for every rewired op, using odd sizes that
// do not divide evenly into scheduler chunks.

// detCase is one op + input whose forward output must not depend on the
// parallelism level.
type detCase struct {
	name string
	op   Op
	in   *tensor.Tensor
}

func detCases(t *testing.T) []detCase {
	t.Helper()
	rng := rand.New(rand.NewSource(99))
	mk := func(op Op) Op {
		op.Init(rng)
		return op
	}
	dw := mk(NewDepthwiseConv2D("dw", 13, 3, 1, 1))
	dwSliced, err := dw.(*DepthwiseConv2D).SliceChannels(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	fbn := mk(NewBatchNorm("fbn", 13)).(*BatchNorm)
	fconv, err := NewFusedConv2D(mk(NewConv2D("fc", 5, 13, 3, 1, 1)).(*Conv2D), fbn, true)
	if err != nil {
		t.Fatal(err)
	}
	return []detCase{
		{"conv-pad", mk(NewConv2D("c", 5, 13, 3, 1, 1)), tensor.Rand(rng, 1, 5, 17, 19)},
		{"conv-stride", mk(NewConv2D("cs", 7, 11, 5, 2, 2)), tensor.Rand(rng, 1, 7, 23, 23)},
		{"conv-nopad", mk(NewConv2D("cn", 3, 9, 3, 1, 0)), tensor.Rand(rng, 1, 3, 15, 15)},
		{"depthwise", dw, tensor.Rand(rng, 1, 13, 17, 17)},
		{"depthwise-sliced", dwSliced, tensor.Rand(rng, 1, 13, 17, 17)},
		{"dense", mk(NewDense("d", 251, 127)), tensor.Rand(rng, 1, 251)},
		{"fused-conv-bn-relu", fconv, tensor.Rand(rng, 1, 5, 17, 19)},
		{"fused-dense", NewFusedDense(mk(NewDense("fd", 251, 127)).(*Dense)), tensor.Rand(rng, 1, 251)},
		{"maxpool", NewMaxPool2D("mp", 3, 2, 1), tensor.Rand(rng, 1, 11, 19, 19)},
		{"avgpool", NewAvgPool2D("ap", 2, 2), tensor.Rand(rng, 1, 11, 18, 18)},
		{"gap", NewGlobalAvgPool("gap"), tensor.Rand(rng, 1, 13, 9, 9)},
		{"lstm", mk(NewLSTM("l", 37, 53)), tensor.Rand(rng, 1, 11, 37)},
	}
}

// forceWork drops the parallel thresholds out of the way by oversubscribing
// the cap; with the cap above GOMAXPROCS the parallel path runs even on
// single-core machines.
func TestForwardBitwiseIdenticalAcrossParallelism(t *testing.T) {
	cases := detCases(t)
	restore := par.SetParallelism(1)
	refs := make([]*tensor.Tensor, len(cases))
	for i, tc := range cases {
		out, err := tc.op.Forward(tc.in)
		if err != nil {
			restore()
			t.Fatalf("%s: %v", tc.name, err)
		}
		refs[i] = out
	}
	restore()

	for _, p := range []int{2, 3, 5, 8} {
		restore := par.SetParallelism(p)
		for i, tc := range cases {
			out, err := tc.op.Forward(tc.in)
			if err != nil {
				restore()
				t.Fatalf("p=%d %s: %v", p, tc.name, err)
			}
			if !tensor.Equal(out, refs[i]) {
				restore()
				t.Fatalf("p=%d %s: output is not bitwise identical to serial execution", p, tc.name)
			}
		}
		restore()
	}
}

// TestBatchedForwardBitwiseIdenticalAcrossParallelism extends the
// parallelism-invariance pin to the batched ops: for every op with a batched
// kernel, ForwardBatch over a batch of three must equal the serial per-query
// loop bitwise at every parallelism level — the batch dimension only widens
// the parallel index space, it never reorders an accumulation.
func TestBatchedForwardBitwiseIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const batch = 3
	for _, tc := range detCases(t) {
		if _, ok := tc.op.(BatchForwarder); !ok {
			continue
		}
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			ins := make([][]*tensor.Tensor, batch)
			for e := range ins {
				ins[e] = []*tensor.Tensor{tensor.Rand(rng, 1, tc.in.Shape()...)}
			}
			restore := par.SetParallelism(1)
			refs := make([]*tensor.Tensor, batch)
			for e := range ins {
				out, err := tc.op.Forward(ins[e][0])
				if err != nil {
					restore()
					t.Fatal(err)
				}
				refs[e] = out
			}
			restore()
			for _, p := range []int{1, 2, 3, 5, 8} {
				restore := par.SetParallelism(p)
				outs, err := forwardBatch(tc.op, ins)
				restore()
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				for e := range outs {
					if !tensor.Equal(outs[e], refs[e]) {
						t.Fatalf("p=%d element %d: batched output is not bitwise identical to serial per-query execution", p, e)
					}
				}
			}
		})
	}
}

// TestForwardValidHBitwiseIdenticalAcrossParallelism covers the halo
// execution path the spatial partitioner uses.
func TestForwardValidHBitwiseIdenticalAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct {
		op Spatial
		in *tensor.Tensor
	}{
		{NewConv2D("c", 5, 13, 3, 1, 1), tensor.Rand(rng, 1, 5, 17, 19)},
		{NewDepthwiseConv2D("dw", 13, 3, 1, 1), tensor.Rand(rng, 1, 13, 17, 19)},
		{NewMaxPool2D("mp", 3, 2, 1), tensor.Rand(rng, 1, 13, 17, 19)},
	}
	for _, tc := range cases {
		tc.op.Init(rng)
	}
	for _, tc := range cases {
		op, in := tc.op, tc.in
		restore := par.SetParallelism(1)
		want, err := forwardValidH(op, in)
		restore()
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		restore = par.SetParallelism(7)
		got, err := forwardValidH(op, in)
		restore()
		if err != nil {
			t.Fatalf("%s: %v", op.Name(), err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("%s: ForwardValidHInto diverged under parallelism", op.Name())
		}
	}
}

// TestConcurrentForwardIsRaceFree shares one initialized op across many
// goroutines calling Forward simultaneously (the serving runtime does this
// when several simulated instances execute the same partition). Run with
// -race; it also checks all outputs agree bitwise.
func TestConcurrentForwardIsRaceFree(t *testing.T) {
	restore := par.SetParallelism(4)
	defer restore()
	for _, tc := range detCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := tc.op.Forward(tc.in)
			if err != nil {
				t.Fatal(err)
			}
			const goroutines = 8
			outs := make([]*tensor.Tensor, goroutines)
			errs := make([]error, goroutines)
			var wg sync.WaitGroup
			for g := 0; g < goroutines; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					outs[g], errs[g] = tc.op.Forward(tc.in)
				}(g)
			}
			wg.Wait()
			for g := 0; g < goroutines; g++ {
				if errs[g] != nil {
					t.Fatalf("goroutine %d: %v", g, errs[g])
				}
				if !tensor.Equal(outs[g], want) {
					t.Fatalf("goroutine %d produced a different output", g)
				}
			}
		})
	}
}

// TestConvScratchDoesNotLeakState runs two different inputs through the same
// conv back to back: a stale scratch buffer (e.g. unzeroed padding) would
// corrupt the second result.
func TestConvScratchDoesNotLeakState(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	c := NewConv2D("c", 3, 4, 3, 1, 1)
	c.Init(rng)
	a := tensor.Rand(rng, 1, 3, 9, 9)
	b := tensor.Rand(rng, 1, 3, 9, 9)
	wantA, err := c.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Forward(b); err != nil {
		t.Fatal(err)
	}
	gotA, err := c.Forward(a)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(gotA, wantA) {
		t.Fatal("conv forward depends on scratch-buffer history")
	}
}

// TestParallelismLevelsSweep is a sanity sweep over ragged sizes: output
// channel counts chosen to never divide evenly by the chunk counts the
// scheduler picks.
func TestParallelismLevelsSweep(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, outC := range []int{1, 2, 3, 7, 29} {
		c := NewConv2D(fmt.Sprintf("c%d", outC), 3, outC, 3, 1, 1)
		c.Init(rng)
		in := tensor.Rand(rng, 1, 3, 13, 13)
		restore := par.SetParallelism(1)
		want, err := c.Forward(in)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		restore = par.SetParallelism(5)
		got, err := c.Forward(in)
		restore()
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("outC=%d: ragged chunking changed the output", outC)
		}
	}
}
