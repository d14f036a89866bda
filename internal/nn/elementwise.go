package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/tensor"
)

// BatchNorm applies per-channel affine normalization using frozen inference
// statistics: y = gamma * (x - mean) / sqrt(var + eps) + beta.
// Input layout is CHW.
type BatchNorm struct {
	OpName string
	C      int
	Eps    float32

	// Gamma, Beta, Mean, Var each have shape [C].
	Gamma *tensor.Tensor
	Beta  *tensor.Tensor
	Mean  *tensor.Tensor
	Var   *tensor.Tensor
}

var (
	_ Weighted         = (*BatchNorm)(nil)
	_ Spatial          = (*BatchNorm)(nil)
	_ ChannelSliceable = (*BatchNorm)(nil)
)

// NewBatchNorm constructs an uninitialized batch normalization operator.
func NewBatchNorm(name string, c int) *BatchNorm {
	return &BatchNorm{OpName: name, C: c, Eps: 1e-5}
}

// Name implements Op.
func (b *BatchNorm) Name() string { return b.OpName }

// Kind implements Op.
func (b *BatchNorm) Kind() Kind { return KindBatchNorm }

// OutShape implements Op.
func (b *BatchNorm) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("BatchNorm", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("BatchNorm", s, 3); err != nil {
		return nil, err
	}
	if s[0] != b.C {
		return nil, fmt.Errorf("nn: BatchNorm %q expects %d channels, got %d", b.OpName, b.C, s[0])
	}
	out := make([]int, len(s))
	copy(out, s)
	return out, nil
}

// FLOPs implements Op (one multiply + one add per element with folded
// scale/shift).
func (b *BatchNorm) FLOPs(in ...[]int) int64 {
	if len(in) != 1 {
		return 0
	}
	return 2 * prod(in[0])
}

// ParamCount implements Op: gamma, beta, mean, and variance are all resident.
func (b *BatchNorm) ParamCount() int64 { return 4 * int64(b.C) }

// Init implements Op.
func (b *BatchNorm) Init(rng *rand.Rand) {
	b.Gamma = tensor.Rand(rng, 0.5, b.C)
	for i, v := range b.Gamma.Data() {
		b.Gamma.Data()[i] = 1 + v // gammas near 1 keep activations well-scaled
	}
	b.Beta = tensor.Rand(rng, 0.1, b.C)
	b.Mean = tensor.Rand(rng, 0.1, b.C)
	b.Var = tensor.Rand(rng, 0.2, b.C)
	for i, v := range b.Var.Data() {
		b.Var.Data()[i] = 1 + float32(v*v) // strictly positive variances
	}
}

// Initialized implements Op.
func (b *BatchNorm) Initialized() bool {
	return b.Gamma != nil && b.Beta != nil && b.Mean != nil && b.Var != nil
}

// Weights implements Weighted.
func (b *BatchNorm) Weights() []*tensor.Tensor {
	return []*tensor.Tensor{b.Gamma, b.Beta, b.Mean, b.Var}
}

// SetWeights implements Weighted.
func (b *BatchNorm) SetWeights(ws []*tensor.Tensor) error {
	if len(ws) != 4 {
		return fmt.Errorf("nn: BatchNorm %q expects 4 weight tensors, got %d", b.OpName, len(ws))
	}
	for i, w := range ws {
		if !tensor.ShapeEqual(w.Shape(), []int{b.C}) {
			return fmt.Errorf("nn: BatchNorm %q weight %d shape %v mismatch", b.OpName, i, w.Shape())
		}
	}
	b.Gamma, b.Beta, b.Mean, b.Var = ws[0], ws[1], ws[2], ws[3]
	return nil
}

// Forward implements Op.
func (b *BatchNorm) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(b, in) }

// ForwardInto implements Op.
func (b *BatchNorm) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("BatchNorm", len(in)); err != nil {
		return err
	}
	if !b.Initialized() {
		return fmt.Errorf("nn: BatchNorm %q has no weights", b.OpName)
	}
	x := in[0]
	if x.Rank() != 3 || x.Dim(0) != b.C {
		return fmt.Errorf("nn: BatchNorm %q bad input %v", b.OpName, x.Shape())
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if err := checkDst(b, dst, c, h, w); err != nil {
		return err
	}
	xd, od := x.Data(), dst.Data()
	for ci := 0; ci < c; ci++ {
		scale, shift := b.fold(ci)
		affineClampGo(od[ci*h*w:(ci+1)*h*w], xd[ci*h*w:(ci+1)*h*w], scale, shift, true, false)
	}
	return nil
}

// fold is channel ci's inference transform y = x*scale + shift:
// scale = gamma/sqrt(var+eps), shift = beta - scale*mean, the product rounded
// before the subtraction on every architecture. ForwardInto and Fold both
// take it from here, so a Conv2D with this BatchNorm folded in applies the
// standalone forward's affine bit for bit.
func (b *BatchNorm) fold(ci int) (scale, shift float32) {
	scale = b.Gamma.Data()[ci] / float32(math.Sqrt(float64(b.Var.Data()[ci]+b.Eps)))
	return scale, b.Beta.Data()[ci] - float32(scale*b.Mean.Data()[ci])
}

// Fold returns the per-channel scale and shift a Conv2D's epilogue applies
// in place of this BatchNorm. The BatchNorm must be initialized.
func (b *BatchNorm) Fold() (scale, shift *tensor.Tensor, err error) {
	if !b.Initialized() {
		return nil, nil, fmt.Errorf("nn: BatchNorm %q has no statistics to fold", b.OpName)
	}
	scale, shift = tensor.New(b.C), tensor.New(b.C)
	for ci := range b.C {
		scale.Data()[ci], shift.Data()[ci] = b.fold(ci)
	}
	return scale, shift, nil
}

// HKernel implements Spatial.
func (b *BatchNorm) HKernel() (k, s, p int) { return 1, 1, 0 }

// OutChannels implements ChannelSliceable.
func (b *BatchNorm) OutChannels() int { return b.C }

// SliceChannels implements ChannelSliceable.
func (b *BatchNorm) SliceChannels(start, end int) (Op, error) {
	if start < 0 || end > b.C || start >= end {
		return nil, fmt.Errorf("nn: BatchNorm %q channel slice [%d,%d) out of range %d", b.OpName, start, end, b.C)
	}
	out := NewBatchNorm(fmt.Sprintf("%s[%d:%d]", b.OpName, start, end), end-start)
	out.Eps = b.Eps
	if b.Initialized() {
		ws := make([]*tensor.Tensor, 4)
		for i, w := range b.Weights() {
			s, err := w.Rows(start, end)
			if err != nil {
				return nil, err
			}
			ws[i] = s
		}
		if err := out.SetWeights(ws); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// ReLU is the rectified-linear activation, element-wise on any shape.
type ReLU struct {
	OpName string
}

var _ Spatial = (*ReLU)(nil)

// NewReLU constructs a ReLU operator.
func NewReLU(name string) *ReLU { return &ReLU{OpName: name} }

// Name implements Op.
func (r *ReLU) Name() string { return r.OpName }

// Kind implements Op.
func (r *ReLU) Kind() Kind { return KindReLU }

// OutShape implements Op.
func (r *ReLU) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("ReLU", len(in)); err != nil {
		return nil, err
	}
	out := make([]int, len(in[0]))
	copy(out, in[0])
	return out, nil
}

// FLOPs implements Op.
func (r *ReLU) FLOPs(in ...[]int) int64 {
	if len(in) != 1 {
		return 0
	}
	return prod(in[0])
}

// ParamCount implements Op.
func (r *ReLU) ParamCount() int64 { return 0 }

// Init implements Op.
func (r *ReLU) Init(*rand.Rand) {}

// Initialized implements Op.
func (r *ReLU) Initialized() bool { return true }

// Forward implements Op.
func (r *ReLU) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(r, in) }

// ForwardInto implements Op.
func (r *ReLU) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("ReLU", len(in)); err != nil {
		return err
	}
	if err := checkDstLike(r, dst, in[0]); err != nil {
		return err
	}
	tile.clampRow(dst.Data(), in[0].Data())
	return nil
}

// HKernel implements Spatial.
func (r *ReLU) HKernel() (k, s, p int) { return 1, 1, 0 }

// Add sums two same-shaped tensors element-wise (residual connections).
type Add struct {
	OpName string
}

var _ Spatial = (*Add)(nil)

// NewAdd constructs an element-wise addition operator.
func NewAdd(name string) *Add { return &Add{OpName: name} }

// Name implements Op.
func (a *Add) Name() string { return a.OpName }

// Kind implements Op.
func (a *Add) Kind() Kind { return KindAdd }

// OutShape implements Op.
func (a *Add) OutShape(in ...[]int) ([]int, error) {
	if len(in) != 2 {
		return nil, fmt.Errorf("nn: Add expects 2 inputs, got %d", len(in))
	}
	if !tensor.ShapeEqual(in[0], in[1]) {
		return nil, fmt.Errorf("nn: Add %q shape mismatch %v vs %v", a.OpName, in[0], in[1])
	}
	out := make([]int, len(in[0]))
	copy(out, in[0])
	return out, nil
}

// FLOPs implements Op.
func (a *Add) FLOPs(in ...[]int) int64 {
	if len(in) != 2 {
		return 0
	}
	return prod(in[0])
}

// ParamCount implements Op.
func (a *Add) ParamCount() int64 { return 0 }

// Init implements Op.
func (a *Add) Init(*rand.Rand) {}

// Initialized implements Op.
func (a *Add) Initialized() bool { return true }

// Forward implements Op.
func (a *Add) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(a, in) }

// ForwardInto implements Op.
func (a *Add) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if len(in) != 2 {
		return fmt.Errorf("nn: Add expects 2 inputs, got %d", len(in))
	}
	if !in[0].SameShape(in[1]) {
		return fmt.Errorf("nn: Add %q: shape mismatch %v vs %v", a.OpName, in[0].Shape(), in[1].Shape())
	}
	if err := checkDstLike(a, dst, in[0]); err != nil {
		return err
	}
	xd, yd, od := in[0].Data(), in[1].Data(), dst.Data()
	for i := range od {
		od[i] = xd[i] + yd[i]
	}
	return nil
}

// HKernel implements Spatial.
func (a *Add) HKernel() (k, s, p int) { return 1, 1, 0 }

// Softmax normalizes the final dimension into a probability distribution.
type Softmax struct {
	OpName string
}

var _ Op = (*Softmax)(nil)

// NewSoftmax constructs a softmax operator.
func NewSoftmax(name string) *Softmax { return &Softmax{OpName: name} }

// Name implements Op.
func (s *Softmax) Name() string { return s.OpName }

// Kind implements Op.
func (s *Softmax) Kind() Kind { return KindSoftmax }

// OutShape implements Op.
func (s *Softmax) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("Softmax", len(in)); err != nil {
		return nil, err
	}
	out := make([]int, len(in[0]))
	copy(out, in[0])
	return out, nil
}

// FLOPs implements Op.
func (s *Softmax) FLOPs(in ...[]int) int64 {
	if len(in) != 1 {
		return 0
	}
	return 5 * prod(in[0])
}

// ParamCount implements Op.
func (s *Softmax) ParamCount() int64 { return 0 }

// Init implements Op.
func (s *Softmax) Init(*rand.Rand) {}

// Initialized implements Op.
func (s *Softmax) Initialized() bool { return true }

// Forward implements Op.
func (s *Softmax) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(s, in) }

// ForwardInto implements Op.
func (s *Softmax) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("Softmax", len(in)); err != nil {
		return err
	}
	x := in[0]
	if err := checkDstLike(s, dst, x); err != nil {
		return err
	}
	n := x.Dim(x.Rank() - 1)
	xd, od := x.Data(), dst.Data()
	for base := 0; base < len(xd); base += n {
		src, row := xd[base:base+n], od[base:base+n]
		mx := src[0]
		for _, v := range src {
			if v > mx {
				mx = v
			}
		}
		var sum float32
		for i, v := range src {
			e := float32(math.Exp(float64(v - mx)))
			row[i] = e
			sum += e
		}
		inv := 1 / sum
		for i := range row {
			row[i] *= inv
		}
	}
	return nil
}
