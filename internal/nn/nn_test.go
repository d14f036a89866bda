package nn

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"gillis/internal/tensor"
)

func mustTensor(t *testing.T, data []float32, shape ...int) *tensor.Tensor {
	t.Helper()
	x, err := tensor.FromData(data, shape...)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestConvGolden(t *testing.T) {
	// 1x3x3 input, one 2x2 filter of ones, stride 1, no pad, zero bias.
	c := NewConv2D("c", 1, 1, 2, 1, 0)
	c.W = tensor.Full(1, 1, 1, 2, 2)
	c.B = tensor.New(1)
	in := mustTensor(t, []float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 1, 3, 3)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{12, 16, 24, 28}, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("conv golden mismatch: got %v", out.Data())
	}
}

func TestConvPadding(t *testing.T) {
	// Identity-ish: 1x1 input, 3x3 filter of ones, pad 1 → sums 3x3
	// neighbourhood; with a single pixel the output equals the input value.
	c := NewConv2D("c", 1, 1, 3, 1, 1)
	c.W = tensor.Full(1, 1, 1, 3, 3)
	c.B = tensor.New(1)
	in := mustTensor(t, []float32{5}, 1, 1, 1)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dim(1) != 1 || out.Dim(2) != 1 || out.At(0, 0, 0) != 5 {
		t.Fatalf("padded conv wrong: %v %v", out.Shape(), out.Data())
	}
}

func TestConvStride(t *testing.T) {
	c := NewConv2D("c", 1, 1, 1, 2, 0)
	c.W = tensor.Full(1, 1, 1, 1, 1)
	c.B = tensor.New(1)
	in := mustTensor(t, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{1, 3, 9, 11}, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("strided conv got %v", out.Data())
	}
}

func TestConvOutShapeErrors(t *testing.T) {
	c := NewConv2D("c", 3, 8, 3, 1, 1)
	if _, err := c.OutShape([]int{4, 8, 8}); err == nil {
		t.Fatal("expected channel mismatch error")
	}
	if _, err := c.OutShape([]int{3, 8}); err == nil {
		t.Fatal("expected rank error")
	}
	if _, err := c.OutShape([]int{3, 8, 8}, []int{3, 8, 8}); err == nil {
		t.Fatal("expected input-count error")
	}
}

// TestWeightedForwardRejectsBadCalls drives the argument checks of each
// weighted op's forward body, which Forward and ForwardBatch share: no
// weights yet, the wrong number of inputs, a mis-shaped input, and a batch
// whose second element does not match its first.
func TestWeightedForwardRejectsBadCalls(t *testing.T) {
	for _, tc := range []struct {
		op            Op
		good, bad, ok *tensor.Tensor // ok is well-formed but shaped unlike good
	}{
		{NewConv2D("conv", 1, 1, 1, 1, 0), tensor.New(1, 2, 2), tensor.New(2, 2, 2), tensor.New(1, 3, 3)},
		{NewDense("dense", 4, 3), tensor.New(4), tensor.New(5), nil},
		{NewFusedDense(NewDense("fused", 4, 3)), tensor.New(4), tensor.New(2, 2), nil},
		{NewLSTM("lstm", 4, 3), tensor.New(2, 4), tensor.New(2, 5), tensor.New(3, 4)},
	} {
		name := tc.op.Name()
		if _, err := tc.op.Forward(tc.good); err == nil {
			t.Errorf("%s: expected uninitialized-weights error", name)
		}
		tc.op.Init(rand.New(rand.NewSource(1)))
		if _, err := tc.op.Forward(tc.good); err != nil {
			t.Errorf("%s: well-formed forward failed: %v", name, err)
		}
		if _, err := tc.op.Forward(); err == nil {
			t.Errorf("%s: expected input-count error for no inputs", name)
		}
		if _, err := tc.op.Forward(tc.good, tc.good); err == nil {
			t.Errorf("%s: expected input-count error for two inputs", name)
		}
		if _, err := tc.op.Forward(tc.bad); err == nil {
			t.Errorf("%s: expected bad-input error for shape %v", name, tc.bad.Shape())
		}
		if _, err := forwardBatch(tc.op, [][]*tensor.Tensor{{tc.good}, {tc.bad}}); err == nil {
			t.Errorf("%s: expected bad-input error for a batch's second element", name)
		}
		if tc.ok != nil {
			// The batched body itself refuses mixed shapes; the dispatcher
			// would have looped them one at a time.
			dsts := make([]*tensor.Tensor, 2)
			for e, x := range []*tensor.Tensor{tc.good, tc.ok} {
				shape, err := tc.op.OutShape(x.Shape())
				if err != nil {
					t.Fatal(err)
				}
				dsts[e] = tensor.New(shape...)
			}
			if err := tc.op.(BatchForwarder).ForwardBatchInto(dsts, []*tensor.Tensor{tc.good, tc.ok}); err == nil {
				t.Errorf("%s: expected an error for a batch mixing shapes %v and %v", name, tc.good.Shape(), tc.ok.Shape())
			}
		}
	}
}

func TestConvChannelSliceExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	c := NewConv2D("c", 3, 8, 3, 1, 1)
	c.Init(rng)
	in := tensor.Rand(rng, 1, 3, 6, 6)
	full, err := c.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	var parts []*tensor.Tensor
	for _, r := range [][2]int{{0, 3}, {3, 5}, {5, 8}} {
		sub, err := c.SliceChannels(r[0], r[1])
		if err != nil {
			t.Fatal(err)
		}
		p, err := sub.Forward(in)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, p)
	}
	cat, err := tensor.ConcatDim(0, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(full, cat) {
		t.Fatal("channel-sliced conv must reproduce full output bitwise")
	}
}

func TestConvParamsAndFLOPs(t *testing.T) {
	c := NewConv2D("c", 3, 64, 7, 2, 3)
	if got, want := c.ParamCount(), int64(3*64*49+64); got != want {
		t.Fatalf("params got %d want %d", got, want)
	}
	out, err := c.OutShape([]int{3, 224, 224})
	if err != nil {
		t.Fatal(err)
	}
	if out[0] != 64 || out[1] != 112 || out[2] != 112 {
		t.Fatalf("ResNet stem shape wrong: %v", out)
	}
	if c.FLOPs([]int{3, 224, 224}) <= 0 {
		t.Fatal("FLOPs must be positive")
	}
}

func TestMaxPoolGoldenAndPadding(t *testing.T) {
	m := NewMaxPool2D("p", 3, 2, 1)
	in := mustTensor(t, []float32{
		-1, -2, -3, -4,
		-5, -6, -7, -8,
		-9, -10, -11, -12,
		-13, -14, -15, -16,
	}, 1, 4, 4)
	out, err := m.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	// Padding must behave as -inf: windows that overlap the border still
	// pick the max *real* value (zero-padding would wrongly return 0 for an
	// all-negative input).
	want := mustTensor(t, []float32{-1, -2, -5, -6}, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("maxpool got %v", out.Data())
	}
}

func TestAvgPoolGolden(t *testing.T) {
	a := NewAvgPool2D("a", 2, 2)
	in := mustTensor(t, []float32{
		1, 2, 3, 4,
		5, 6, 7, 8,
		9, 10, 11, 12,
		13, 14, 15, 16,
	}, 1, 4, 4)
	out, err := a.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{3.5, 5.5, 11.5, 13.5}, 1, 2, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("avgpool got %v", out.Data())
	}
}

func TestGlobalAvgPool(t *testing.T) {
	g := NewGlobalAvgPool("g")
	in := mustTensor(t, []float32{1, 2, 3, 4, 10, 20, 30, 40}, 2, 2, 2)
	out, err := g.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{2.5, 25}, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("gap got %v", out.Data())
	}
}

func TestBatchNormGolden(t *testing.T) {
	b := NewBatchNorm("b", 2)
	ws := []*tensor.Tensor{
		tensor.Full(2, 2), // gamma
		tensor.Full(1, 2), // beta
		tensor.Full(3, 2), // mean
		tensor.Full(4, 2), // var
	}
	if err := b.SetWeights(ws); err != nil {
		t.Fatal(err)
	}
	in := tensor.Full(5, 2, 1, 1)
	out, err := b.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	// y = 2*(5-3)/sqrt(4+eps) + 1 ≈ 3
	if math.Abs(float64(out.At(0, 0, 0))-3) > 1e-4 {
		t.Fatalf("bn got %v", out.Data())
	}
}

func TestBatchNormChannelSlice(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	b := NewBatchNorm("b", 6)
	b.Init(rng)
	in := tensor.Rand(rng, 1, 6, 3, 3)
	full, err := b.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	lo, err := b.SliceChannels(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	hi, err := b.SliceChannels(2, 6)
	if err != nil {
		t.Fatal(err)
	}
	inLo, _ := in.SliceDim(0, 0, 2)
	inHi, _ := in.SliceDim(0, 2, 6)
	outLo, err := lo.Forward(inLo)
	if err != nil {
		t.Fatal(err)
	}
	outHi, err := hi.Forward(inHi)
	if err != nil {
		t.Fatal(err)
	}
	cat, _ := tensor.ConcatDim(0, outLo, outHi)
	if !tensor.Equal(full, cat) {
		t.Fatal("channel-sliced BN must reproduce full output")
	}
}

func TestReLU(t *testing.T) {
	r := NewReLU("r")
	in := mustTensor(t, []float32{-1, 0, 2}, 3)
	out, err := r.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{0, 0, 2}, 3)
	if !tensor.Equal(out, want) {
		t.Fatalf("relu got %v", out.Data())
	}
	if in.At(0) != -1 {
		t.Fatal("ReLU must not mutate its input")
	}
}

func TestAdd(t *testing.T) {
	a := NewAdd("a")
	x := mustTensor(t, []float32{1, 2}, 2)
	y := mustTensor(t, []float32{10, 20}, 2)
	out, err := a.Forward(x, y)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{11, 22}, 2)
	if !tensor.Equal(out, want) {
		t.Fatalf("add got %v", out.Data())
	}
	if _, err := a.Forward(x); err == nil {
		t.Fatal("expected two-input error")
	}
	if _, err := a.OutShape([]int{2}, []int{3}); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestSoftmax(t *testing.T) {
	s := NewSoftmax("s")
	in := mustTensor(t, []float32{1, 1, 1, 1}, 4)
	out, err := s.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range out.Data() {
		if math.Abs(float64(v)-0.25) > 1e-6 {
			t.Fatalf("softmax got %v", out.Data())
		}
	}
	// Numerical stability with large logits.
	big := mustTensor(t, []float32{1000, 1000}, 2)
	out, err = s.Forward(big)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(float64(out.At(0))) || math.Abs(float64(out.At(0))-0.5) > 1e-6 {
		t.Fatalf("softmax unstable: %v", out.Data())
	}
}

func TestDenseGoldenAndSlice(t *testing.T) {
	d := NewDense("d", 2, 3)
	w := mustTensor(t, []float32{
		1, 0,
		0, 1,
		1, 1,
	}, 3, 2)
	b := mustTensor(t, []float32{0, 0, 1}, 3)
	if err := d.SetWeights([]*tensor.Tensor{w, b}); err != nil {
		t.Fatal(err)
	}
	in := mustTensor(t, []float32{3, 4}, 2)
	out, err := d.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	want := mustTensor(t, []float32{3, 4, 8}, 3)
	if !tensor.Equal(out, want) {
		t.Fatalf("dense got %v", out.Data())
	}
	sub, err := d.SliceChannels(1, 3)
	if err != nil {
		t.Fatal(err)
	}
	subOut, err := sub.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	wantSub := mustTensor(t, []float32{4, 8}, 2)
	if !tensor.Equal(subOut, wantSub) {
		t.Fatalf("dense slice got %v", subOut.Data())
	}
}

func TestLSTMShapesAndDeterminism(t *testing.T) {
	l := NewLSTM("l", 4, 3)
	l.Init(rand.New(rand.NewSource(1)))
	in := tensor.Rand(rand.New(rand.NewSource(2)), 1, 5, 4)
	out1, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out1.Shape(), []int{5, 3}) {
		t.Fatalf("lstm out shape %v", out1.Shape())
	}
	out2, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(out1, out2) {
		t.Fatal("lstm forward must be deterministic")
	}
	// Hidden states are bounded by tanh.
	for _, v := range out1.Data() {
		if v < -1 || v > 1 {
			t.Fatalf("hidden state out of range: %v", v)
		}
	}
}

func TestLSTMCausality(t *testing.T) {
	// Changing a late input step must not affect earlier outputs.
	l := NewLSTM("l", 2, 2)
	l.Init(rand.New(rand.NewSource(5)))
	in := tensor.Rand(rand.New(rand.NewSource(6)), 1, 4, 2)
	out1, err := l.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	in2 := in.Clone()
	in2.Set(99, 3, 0)
	out2, err := l.Forward(in2)
	if err != nil {
		t.Fatal(err)
	}
	early1, _ := out1.SliceDim(0, 0, 3)
	early2, _ := out2.SliceDim(0, 0, 3)
	if !tensor.Equal(early1, early2) {
		t.Fatal("LSTM must be causal")
	}
}

func TestParamBytesAndWeightedRoundtrip(t *testing.T) {
	ops := []Weighted{
		NewConv2D("c", 2, 4, 3, 1, 1),
		NewBatchNorm("b", 4),
		NewDense("d", 8, 4),
		NewLSTM("l", 4, 4),
	}
	rng := rand.New(rand.NewSource(9))
	for _, op := range ops {
		if op.Initialized() {
			t.Fatalf("%s should start uninitialized", op.Name())
		}
		op.Init(rng)
		if !op.Initialized() {
			t.Fatalf("%s should be initialized", op.Name())
		}
		var n int64
		for _, w := range op.Weights() {
			n += int64(w.Len())
		}
		if n != op.ParamCount() {
			t.Fatalf("%s ParamCount %d != stored scalars %d", op.Name(), op.ParamCount(), n)
		}
		if ParamBytes(op) != 4*n {
			t.Fatalf("%s ParamBytes mismatch", op.Name())
		}
		if err := op.SetWeights(op.Weights()); err != nil {
			t.Fatalf("%s SetWeights roundtrip: %v", op.Name(), err)
		}
		if err := op.SetWeights(nil); err == nil {
			t.Fatalf("%s expected SetWeights(nil) error", op.Name())
		}
	}
}

// Property: for any Spatial op, Forward equals ForwardValidHInto applied to an
// input explicitly padded along height.
func TestSpatialValidHEquivalence(t *testing.T) {
	f := func(seed int64, which uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		c := 1 + rng.Intn(3)
		h := 4 + rng.Intn(5)
		w := 4 + rng.Intn(5)
		in := tensor.Rand(rng, 1, c, h, w)

		var op Spatial
		switch which % 4 {
		case 0:
			cv := NewConv2D("c", c, 2, 3, 1+rng.Intn(2), 1)
			cv.Init(rng)
			op = cv
		case 1:
			op = NewMaxPool2D("p", 3, 2, 1)
		case 2:
			bn := NewBatchNorm("b", c)
			bn.Init(rng)
			op = bn
		default:
			op = NewReLU("r")
		}
		full, err := op.Forward(in)
		if err != nil {
			return false
		}
		_, _, p := op.HKernel()
		padded := in
		if p > 0 {
			padded, err = in.PadDim(1, p, p)
			if err != nil {
				return false
			}
			// MaxPool pads with -inf, not zero; emulate by very negative fill.
			if op.Kind() == KindMaxPool {
				d := padded.Data()
				for hh := 0; hh < p; hh++ {
					for ci := 0; ci < c; ci++ {
						for x := 0; x < w; x++ {
							d[(ci*(h+2*p)+hh)*w+x] = float32(math.Inf(-1))
							d[(ci*(h+2*p)+h+2*p-1-hh)*w+x] = float32(math.Inf(-1))
						}
					}
				}
			}
		}
		valid, err := forwardValidH(op, padded)
		if err != nil {
			return false
		}
		return tensor.Equal(full, valid)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestKindString(t *testing.T) {
	if KindConv.String() != "Conv2D" || Kind(99).String() != "Kind(99)" {
		t.Fatal("Kind.String broken")
	}
}
