package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/tensor"
)

// Dense is a fully connected layer mapping a rank-1 input of size In to a
// rank-1 output of size Out.
type Dense struct {
	OpName string
	In     int
	Out    int

	// W has shape [Out, In]; B has shape [Out].
	W *tensor.Tensor
	B *tensor.Tensor

	// Relu is the epilogue graph.Fuse folds in: max(y, 0) on each output
	// row as the row-dot pass finishes it, at no extra FLOPs.
	Relu bool
}

var (
	_ Weighted         = (*Dense)(nil)
	_ ChannelSliceable = (*Dense)(nil)
)

// NewDense constructs an uninitialized fully connected layer.
func NewDense(name string, in, out int) *Dense {
	return &Dense{OpName: name, In: in, Out: out}
}

// Name implements Op.
func (d *Dense) Name() string { return d.OpName }

// Kind implements Op.
func (d *Dense) Kind() Kind { return KindDense }

// OutShape implements Op.
func (d *Dense) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("Dense", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("Dense", s, 1); err != nil {
		return nil, err
	}
	if s[0] != d.In {
		return nil, fmt.Errorf("nn: Dense %q expects input size %d, got %d", d.OpName, d.In, s[0])
	}
	return []int{d.Out}, nil
}

// FLOPs implements Op.
func (d *Dense) FLOPs(in ...[]int) int64 {
	if _, err := d.OutShape(in...); err != nil {
		return 0
	}
	return 2*int64(d.In)*int64(d.Out) + int64(d.Out)
}

// ParamCount implements Op.
func (d *Dense) ParamCount() int64 { return int64(d.In)*int64(d.Out) + int64(d.Out) }

// Init implements Op.
func (d *Dense) Init(rng *rand.Rand) {
	scale := float32(math.Sqrt(2 / float64(d.In)))
	d.W = tensor.Rand(rng, scale, d.Out, d.In)
	d.B = tensor.Rand(rng, 0.01, d.Out)
}

// Initialized implements Op.
func (d *Dense) Initialized() bool { return d.W != nil && d.B != nil }

// Weights implements Weighted.
func (d *Dense) Weights() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// SetWeights implements Weighted.
func (d *Dense) SetWeights(ws []*tensor.Tensor) error {
	if len(ws) != 2 {
		return fmt.Errorf("nn: Dense %q expects 2 weight tensors, got %d", d.OpName, len(ws))
	}
	if !tensor.ShapeEqual(ws[0].Shape(), []int{d.Out, d.In}) {
		return fmt.Errorf("nn: Dense %q weight shape %v mismatch", d.OpName, ws[0].Shape())
	}
	if !tensor.ShapeEqual(ws[1].Shape(), []int{d.Out}) {
		return fmt.Errorf("nn: Dense %q bias shape %v mismatch", d.OpName, ws[1].Shape())
	}
	d.W, d.B = ws[0], ws[1]
	return nil
}

// Forward implements Op.
func (d *Dense) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(d, in) }

// ForwardInto implements Op: the one-element call of the batched body.
func (d *Dense) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("Dense", len(in)); err != nil {
		return err
	}
	return d.forward([]*tensor.Tensor{dst}, in)
}

// ForwardBatchInto implements BatchForwarder: one row-dot pass over all inputs,
// bitwise identical to the per-query loop (see gemvBias).
func (d *Dense) ForwardBatchInto(dsts, xs []*tensor.Tensor) error { return d.forward(dsts, xs) }

// forward lowers the layer onto the row-dot micro-kernel (gemm.go) for every
// xs[e], into dsts[e]. Each output row starts from its bias and reduces over
// In with the fixed lane-striped schedule of laneDotAcc — invariant under
// parallelism, batch size and channel slicing — and the ReLU, if the layer has
// one, runs in the same pass.
func (d *Dense) forward(dsts, xs []*tensor.Tensor) error {
	if len(xs) == 0 {
		return nil
	}
	if !d.Initialized() {
		return fmt.Errorf("nn: Dense %q has no weights", d.OpName)
	}
	ins := make([][]float32, len(xs))
	ods := make([][]float32, len(xs))
	for e, x := range xs {
		if x.Rank() != 1 || x.Dim(0) != d.In {
			return fmt.Errorf("nn: Dense %q bad input %v", d.OpName, x.Shape())
		}
		if err := checkDst(d, dsts[e], d.Out); err != nil {
			return err
		}
		ins[e] = x.Data()
		ods[e] = dsts[e].Data()
	}
	gemvBias(d.Out, d.In, d.W.Data(), d.B.Data(), ins, ods, d.Relu)
	return nil
}

// OutChannels implements ChannelSliceable.
func (d *Dense) OutChannels() int { return d.Out }

// SliceChannels implements ChannelSliceable: the returned layer computes
// output features [start, end) from the full input. Its weights are rows
// [start, end) of d's, shared and not copied (they are never written after
// Init), so slicing a layer per deployment costs no pass over its matrix.
func (d *Dense) SliceChannels(start, end int) (Op, error) {
	if start < 0 || end > d.Out || start >= end {
		return nil, fmt.Errorf("nn: Dense %q channel slice [%d,%d) out of range %d", d.OpName, start, end, d.Out)
	}
	out := NewDense(fmt.Sprintf("%s[%d:%d]", d.OpName, start, end), d.In, end-start)
	out.Relu = d.Relu
	if d.Initialized() {
		w, err := d.W.Rows(start, end)
		if err != nil {
			return nil, err
		}
		b, err := d.B.Rows(start, end)
		if err != nil {
			return nil, err
		}
		out.W, out.B = w, b
	}
	return out, nil
}

// Flatten reshapes any input into a rank-1 tensor.
type Flatten struct {
	OpName string
}

var _ Aliaser = (*Flatten)(nil)

// NewFlatten constructs a flatten operator.
func NewFlatten(name string) *Flatten { return &Flatten{OpName: name} }

// Name implements Op.
func (f *Flatten) Name() string { return f.OpName }

// Kind implements Op.
func (f *Flatten) Kind() Kind { return KindFlatten }

// OutShape implements Op.
func (f *Flatten) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("Flatten", len(in)); err != nil {
		return nil, err
	}
	return []int{int(prod(in[0]))}, nil
}

// FLOPs implements Op.
func (f *Flatten) FLOPs(in ...[]int) int64 { return 0 }

// ParamCount implements Op.
func (f *Flatten) ParamCount() int64 { return 0 }

// Init implements Op.
func (f *Flatten) Init(*rand.Rand) {}

// Initialized implements Op.
func (f *Flatten) Initialized() bool { return true }

// Forward implements Op.
func (f *Flatten) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(f, in) }

// ForwardInto implements Op: a copy of the input's elements.
func (f *Flatten) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("Flatten", len(in)); err != nil {
		return err
	}
	if err := checkDst(f, dst, in[0].Len()); err != nil {
		return err
	}
	copy(dst.Data(), in[0].Data())
	return nil
}

// Alias implements Aliaser: the input under a rank-1 shape.
func (f *Flatten) Alias(in *tensor.Tensor) (*tensor.Tensor, error) { return in.Reshape(in.Len()) }
