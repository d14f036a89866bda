package nn

import (
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// The fusion contract: a fused operator's output is bitwise identical to
// running the unfused sequence, at every parallelism level, for every
// execution path the partitioner uses (full forward, halo forward, channel
// slices). The unfused sequence is the golden reference — it is itself
// pinned by the determinism tests — so these tests double as per-level
// goldens for the fused ops.

// fuseConv returns a copy of conv, sharing its weights, with bn (nil for
// none) folded in and, if relu, a ReLU after it: the layer graph.Fuse builds.
func fuseConv(t testing.TB, conv *Conv2D, bn *BatchNorm, relu bool) *Conv2D {
	t.Helper()
	f := *conv
	f.Relu = relu
	if bn != nil {
		var err error
		if f.Scale, f.Shift, err = bn.Fold(); err != nil {
			t.Fatal(err)
		}
	}
	return &f
}

// fuseDense returns a copy of d, sharing its weights, with a ReLU after it.
func fuseDense(d *Dense) *Dense {
	f := *d
	f.Relu = true
	return &f
}

// fusedGolden runs the unfused reference sequence conv→[bn]→[relu] serially.
func fusedGolden(t *testing.T, conv *Conv2D, bn *BatchNorm, relu bool, in *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	restore := par.SetParallelism(1)
	defer restore()
	out, err := conv.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if bn != nil {
		if out, err = bn.Forward(out); err != nil {
			t.Fatal(err)
		}
	}
	if relu {
		r := NewReLU("r")
		if out, err = r.Forward(out); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

func TestFusedConvBitwiseEqualsUnfusedAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	cases := []struct {
		name string
		bn   bool
		relu bool
	}{
		{"conv-bn", true, false},
		{"conv-bn-relu", true, true},
		{"conv-relu", false, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conv := NewConv2D("c", 5, 13, 3, 1, 1)
			conv.Init(rng)
			var bn *BatchNorm
			if tc.bn {
				bn = NewBatchNorm("b", 13)
				bn.Init(rng)
			}
			in := tensor.Rand(rng, 1, 5, 17, 19)
			want := fusedGolden(t, conv, bn, tc.relu, in)

			fused := fuseConv(t, conv, bn, tc.relu)
			for _, p := range []int{1, 2, 3, 5, 8} {
				restore := par.SetParallelism(p)
				got, err := fused.Forward(in)
				restore()
				if err != nil {
					t.Fatalf("p=%d: %v", p, err)
				}
				if !tensor.Equal(got, want) {
					t.Fatalf("p=%d: fused output is not bitwise identical to the unfused sequence", p)
				}
			}
		})
	}
}

func TestFusedDenseBitwiseEqualsUnfusedAcrossParallelism(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := NewDense("d", 251, 127)
	d.Init(rng)
	in := tensor.Rand(rng, 1, 251)

	restore := par.SetParallelism(1)
	want, err := d.Forward(in)
	if err != nil {
		restore()
		t.Fatal(err)
	}
	r := NewReLU("r")
	if want, err = r.Forward(want); err != nil {
		restore()
		t.Fatal(err)
	}
	restore()

	fused := fuseDense(d)
	for _, p := range []int{1, 2, 3, 5, 8} {
		restore := par.SetParallelism(p)
		got, err := fused.Forward(in)
		restore()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		if !tensor.Equal(got, want) {
			t.Fatalf("p=%d: fused dense output differs from dense+relu", p)
		}
	}
}

// TestFusedConvChannelSliceExact mirrors the conv channel-slice exactness
// test: computing disjoint channel windows of a fused op and concatenating
// them must reproduce the full fused forward bitwise (the epilogue vectors
// are sliced in lockstep with the filters).
func TestFusedConvChannelSliceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	conv := NewConv2D("c", 4, 12, 3, 1, 1)
	conv.Init(rng)
	bn := NewBatchNorm("b", 12)
	bn.Init(rng)
	fused := fuseConv(t, conv, bn, true)
	in := tensor.Rand(rng, 1, 4, 11, 13)
	want, err := fused.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	bounds := []int{0, 5, 9, 12} // deliberately uneven windows
	got := tensor.New(want.Shape()...)
	for i := 0; i+1 < len(bounds); i++ {
		lo, hi := bounds[i], bounds[i+1]
		sl, err := fused.SliceChannels(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		part, err := sl.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		hw := want.Dim(1) * want.Dim(2)
		copy(got.Data()[lo*hw:hi*hw], part.Data())
	}
	if !tensor.Equal(got, want) {
		t.Fatal("channel-sliced fused conv does not reassemble to the full output")
	}
}

// TestFusedConvValidHEqualsUnfused covers the halo path the spatial
// partitioner drives.
func TestFusedConvValidHEqualsUnfused(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	conv := NewConv2D("c", 3, 7, 3, 1, 1)
	conv.Init(rng)
	bn := NewBatchNorm("b", 7)
	bn.Init(rng)
	fused := fuseConv(t, conv, bn, true)
	in := tensor.Rand(rng, 1, 3, 14, 15)

	want, err := forwardValidH(conv, in)
	if err != nil {
		t.Fatal(err)
	}
	if want, err = bn.Forward(want); err != nil {
		t.Fatal(err)
	}
	r := NewReLU("r")
	if want, err = r.Forward(want); err != nil {
		t.Fatal(err)
	}

	got, err := forwardValidH(fused, in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(got, want) {
		t.Fatal("fused ValidH forward differs from the unfused sequence")
	}
}

// TestFusedAccounting pins what the planners see: the folded BatchNorm
// stores half the standalone parameters, and the fused ReLU reports no
// FLOPs of its own.
func TestFusedAccounting(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	conv := NewConv2D("c", 4, 8, 3, 1, 1)
	conv.Init(rng)
	bn := NewBatchNorm("b", 8)
	bn.Init(rng)
	fused := fuseConv(t, conv, bn, true)
	if got, want := fused.ParamCount(), conv.ParamCount()+2*8; got != want {
		t.Fatalf("fused ParamCount = %d, want %d (conv + 2 per-channel vectors)", got, want)
	}
	in := []int{4, 9, 9}
	unfused := conv.FLOPs(in) + bn.FLOPs([]int{8, 9, 9}) + NewReLU("r").FLOPs([]int{8, 9, 9})
	if got := fused.FLOPs(in); got >= unfused {
		t.Fatalf("fused FLOPs = %d, want < unfused total %d", got, unfused)
	}
	if got, want := fused.FLOPs(in), conv.FLOPs(in)+bn.FLOPs([]int{8, 9, 9}); got != want {
		t.Fatalf("fused FLOPs = %d, want conv+affine = %d", got, want)
	}
}
