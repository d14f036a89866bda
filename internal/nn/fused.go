package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/tensor"
)

// Fused operators bind the BatchNorm/ReLU that follow a weighted layer into
// that layer's GEMM epilogue (gemm.go): the post-op runs on each finished
// output row while it is still cache-resident instead of in a separate pass
// over the activation. Fusion is bitwise invisible — the epilogue performs
// exactly the arithmetic of the standalone BatchNorm/ReLU forwards, in the
// same per-element order — so fused and unfused graphs produce identical
// outputs at every parallelism level and under partitioned execution.
//
// What the planners see changes, though: a FusedConv2D folds BatchNorm's
// four per-channel vectors (gamma, beta, mean, var) into two (scale, shift),
// halving the BatchNorm share of the weight bytes a partition ships, and the
// fused ReLU costs no separate activation pass, so its FLOPs disappear from
// the per-layer totals. Kind() still reports the base operator's kind, so
// the fitted per-kind runtime regressions in internal/perf apply unchanged.

// FusedConv2D is a Conv2D with an optional folded BatchNorm (per-channel
// affine) and an optional trailing ReLU executed in the GEMM epilogue.
type FusedConv2D struct {
	Conv *Conv2D

	// Scale and Shift hold the folded BatchNorm transform
	// y = conv(x)*Scale[c] + Shift[c]; both nil when no BatchNorm is fused.
	// Shape [OutC].
	Scale *tensor.Tensor
	Shift *tensor.Tensor

	// Relu applies max(y, 0) after the affine (or directly on the conv
	// output when no BatchNorm is fused).
	Relu bool
}

var (
	_ Weighted         = (*FusedConv2D)(nil)
	_ Spatial          = (*FusedConv2D)(nil)
	_ ChannelSliceable = (*FusedConv2D)(nil)
)

// FoldBatchNorm converts frozen BatchNorm statistics into the per-channel
// (scale, shift) pair the GEMM epilogue applies, using exactly the
// arithmetic of BatchNorm.Forward: scale = gamma/sqrt(var+eps),
// shift = beta - scale*mean. The BatchNorm must be initialized.
func FoldBatchNorm(b *BatchNorm) (scale, shift *tensor.Tensor, err error) {
	if !b.Initialized() {
		return nil, nil, fmt.Errorf("nn: BatchNorm %q has no statistics to fold", b.OpName)
	}
	scale = tensor.New(b.C)
	shift = tensor.New(b.C)
	sd, td := scale.Data(), shift.Data()
	g, bt, mn, vr := b.Gamma.Data(), b.Beta.Data(), b.Mean.Data(), b.Var.Data()
	for ci := 0; ci < b.C; ci++ {
		s := g[ci] / float32(math.Sqrt(float64(vr[ci]+b.Eps)))
		sd[ci] = s
		td[ci] = bt[ci] - s*mn[ci]
	}
	return scale, shift, nil
}

// NewFusedConv2D wraps a convolution with an optional folded BatchNorm and
// optional ReLU. bn may be nil; when present it must be initialized and
// match the convolution's output channels.
func NewFusedConv2D(conv *Conv2D, bn *BatchNorm, relu bool) (*FusedConv2D, error) {
	f := &FusedConv2D{Conv: conv, Relu: relu}
	if bn != nil {
		if bn.C != conv.OutC {
			return nil, fmt.Errorf("nn: fuse %q+%q: BatchNorm channels %d != conv output %d",
				conv.OpName, bn.OpName, bn.C, conv.OutC)
		}
		scale, shift, err := FoldBatchNorm(bn)
		if err != nil {
			return nil, err
		}
		f.Scale, f.Shift = scale, shift
	}
	return f, nil
}

// Name implements Op: the fused operator keeps the convolution's name (the
// absorbed BatchNorm/ReLU nodes disappear from the graph).
func (f *FusedConv2D) Name() string { return f.Conv.OpName }

// Kind implements Op. Reporting KindConv keeps the fused operator matched to
// the conv runtime regression in the performance model.
func (f *FusedConv2D) Kind() Kind { return KindConv }

// HasBN reports whether a folded BatchNorm is attached.
func (f *FusedConv2D) HasBN() bool { return f.Scale != nil }

// epi assembles the GEMM epilogue for the current weights.
func (f *FusedConv2D) epi() *epilogue {
	e := &epilogue{relu: f.Relu}
	if f.Scale != nil {
		e.scale, e.shift = f.Scale.Data(), f.Shift.Data()
	}
	return e
}

// OutShape implements Op.
func (f *FusedConv2D) OutShape(in ...[]int) ([]int, error) { return f.Conv.OutShape(in...) }

// FLOPs implements Op: the convolution plus two ops per element for the
// folded affine. The fused ReLU adds none — it happens in the same pass,
// which is exactly the FLOP reduction the fusion pass reports to planners.
func (f *FusedConv2D) FLOPs(in ...[]int) int64 {
	base := f.Conv.FLOPs(in...)
	if base == 0 {
		return 0
	}
	if f.Scale != nil {
		out, err := f.OutShape(in...)
		if err != nil {
			return base
		}
		base += 2 * prod(out)
	}
	return base
}

// ParamCount implements Op: conv weights plus the two folded per-channel
// vectors (versus four for a standalone BatchNorm).
func (f *FusedConv2D) ParamCount() int64 {
	n := f.Conv.ParamCount()
	if f.Scale != nil {
		n += 2 * int64(f.Conv.OutC)
	}
	return n
}

// Init implements Op: deterministic like every other operator, drawing the
// convolution and, if a BatchNorm was fused at construction, the folded
// affine.
func (f *FusedConv2D) Init(rng *rand.Rand) {
	f.Conv.Init(rng)
	if f.Scale != nil {
		c := f.Conv.OutC
		f.Scale = tensor.Rand(rng, 0.1, c)
		for i, v := range f.Scale.Data() {
			f.Scale.Data()[i] = 1 + v
		}
		f.Shift = tensor.Rand(rng, 0.1, c)
	}
}

// Initialized implements Op.
func (f *FusedConv2D) Initialized() bool {
	return f.Conv.Initialized()
}

// Weights implements Weighted: conv weight, conv bias, then scale and shift
// when a BatchNorm is fused.
func (f *FusedConv2D) Weights() []*tensor.Tensor {
	ws := []*tensor.Tensor{f.Conv.W, f.Conv.B}
	if f.Scale != nil {
		ws = append(ws, f.Scale, f.Shift)
	}
	return ws
}

// SetWeights implements Weighted.
func (f *FusedConv2D) SetWeights(ws []*tensor.Tensor) error {
	want := 2
	if f.Scale != nil {
		want = 4
	}
	if len(ws) != want {
		return fmt.Errorf("nn: FusedConv2D %q expects %d weight tensors, got %d", f.Name(), want, len(ws))
	}
	if err := f.Conv.SetWeights(ws[:2]); err != nil {
		return err
	}
	if f.Scale != nil {
		for _, t := range ws[2:] {
			if !tensor.ShapeEqual(t.Shape(), []int{f.Conv.OutC}) {
				return fmt.Errorf("nn: FusedConv2D %q scale/shift shape %v mismatch", f.Name(), t.Shape())
			}
		}
		f.Scale, f.Shift = ws[2], ws[3]
	}
	return nil
}

// Forward implements Op.
func (f *FusedConv2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return forwardNew(f, in)
}

// ForwardInto implements Op.
func (f *FusedConv2D) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return f.Conv.forwardOne(dst, in, true, f.epi())
}

// ForwardBatchInto implements BatchForwarder: the batched conv pass with the
// folded BatchNorm/ReLU epilogue applied to each element's finished rows,
// bitwise identical to the per-query fused forward.
func (f *FusedConv2D) ForwardBatchInto(dsts, xs []*tensor.Tensor) error {
	return f.Conv.forward(dsts, xs, true, f.epi())
}

// HKernel implements Spatial.
func (f *FusedConv2D) HKernel() (k, s, p int) { return f.Conv.HKernel() }

// ForwardValidHInto implements Spatial.
func (f *FusedConv2D) ForwardValidHInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return f.Conv.forwardOne(dst, in, false, f.epi())
}

// OutChannels implements ChannelSliceable.
func (f *FusedConv2D) OutChannels() int { return f.Conv.OutC }

// SliceChannels implements ChannelSliceable: the slice carries the matching
// window of the folded affine, so sliced execution applies the identical
// per-channel epilogue.
func (f *FusedConv2D) SliceChannels(start, end int) (Op, error) {
	cs, err := f.Conv.SliceChannels(start, end)
	if err != nil {
		return nil, err
	}
	out := &FusedConv2D{Conv: cs.(*Conv2D), Relu: f.Relu}
	if f.Scale != nil {
		scale, err := f.Scale.Rows(start, end)
		if err != nil {
			return nil, err
		}
		shift, err := f.Shift.Rows(start, end)
		if err != nil {
			return nil, err
		}
		out.Scale, out.Shift = scale, shift
	}
	return out, nil
}

// FusedDense is a Dense layer with the trailing ReLU executed inside the
// row-dot kernel pass.
type FusedDense struct {
	Dense *Dense
}

var (
	_ Weighted         = (*FusedDense)(nil)
	_ ChannelSliceable = (*FusedDense)(nil)
)

// NewFusedDense wraps a dense layer with a fused ReLU.
func NewFusedDense(d *Dense) *FusedDense { return &FusedDense{Dense: d} }

// Name implements Op.
func (f *FusedDense) Name() string { return f.Dense.OpName }

// Kind implements Op: KindDense keeps the perf model's dense regression
// applicable.
func (f *FusedDense) Kind() Kind { return KindDense }

// OutShape implements Op.
func (f *FusedDense) OutShape(in ...[]int) ([]int, error) { return f.Dense.OutShape(in...) }

// FLOPs implements Op: the ReLU rides the kernel pass for free.
func (f *FusedDense) FLOPs(in ...[]int) int64 { return f.Dense.FLOPs(in...) }

// ParamCount implements Op.
func (f *FusedDense) ParamCount() int64 { return f.Dense.ParamCount() }

// Init implements Op.
func (f *FusedDense) Init(rng *rand.Rand) { f.Dense.Init(rng) }

// Initialized implements Op.
func (f *FusedDense) Initialized() bool { return f.Dense.Initialized() }

// Weights implements Weighted.
func (f *FusedDense) Weights() []*tensor.Tensor { return f.Dense.Weights() }

// SetWeights implements Weighted.
func (f *FusedDense) SetWeights(ws []*tensor.Tensor) error { return f.Dense.SetWeights(ws) }

// Forward implements Op.
func (f *FusedDense) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return forwardNew(f, in)
}

// ForwardInto implements Op.
func (f *FusedDense) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return f.Dense.forwardOne(dst, in, true)
}

// ForwardBatchInto implements BatchForwarder with the ReLU fused into the
// row-dot pass.
func (f *FusedDense) ForwardBatchInto(dsts, xs []*tensor.Tensor) error {
	return f.Dense.forward(dsts, xs, true)
}

// OutChannels implements ChannelSliceable.
func (f *FusedDense) OutChannels() int { return f.Dense.Out }

// SliceChannels implements ChannelSliceable.
func (f *FusedDense) SliceChannels(start, end int) (Op, error) {
	ds, err := f.Dense.SliceChannels(start, end)
	if err != nil {
		return nil, err
	}
	return &FusedDense{Dense: ds.(*Dense)}, nil
}
