// Package nn implements the neural-network operators Gillis serves: exact
// fp32 forward computation, FLOP and parameter accounting, and the
// partitioning hooks (halo-correct spatial execution, output-channel
// slicing) that the model-partitioning layer builds on. It replaces the
// MXNet backend used by the original system.
//
// Conventions:
//   - Feature maps are CHW (no batch dimension; a batch is a list of
//     tensors).
//   - Dense vectors are rank-1.
//   - Recurrent inputs are [T, features] sequences.
//   - A multiply-accumulate counts as 2 FLOPs.
//   - ParamCount is the number of stored fp32 scalars (what occupies
//     function memory), not the number of trainable parameters.
//   - Every forward body takes its destination (ForwardInto,
//     ForwardValidHInto, ForwardBatchInto) and overwrites every element of a
//     tensor the caller supplies — which may be uninitialized memory out of
//     an activation arena, so no body accumulates into what it finds there.
//     Forward is ForwardInto run on a fresh tensor of the output shape. A
//     destination shares storage with no input.
package nn

import (
	"fmt"
	"math/rand"

	"gillis/internal/tensor"
)

// Kind identifies an operator type.
type Kind int

// Operator kinds.
const (
	KindConv Kind = iota + 1
	KindBatchNorm
	KindReLU
	KindMaxPool
	KindAvgPool
	KindGlobalAvgPool
	KindDense
	KindFlatten
	KindAdd
	KindSoftmax
	KindLSTM
)

var kindNames = map[Kind]string{
	KindConv:          "Conv2D",
	KindBatchNorm:     "BatchNorm",
	KindReLU:          "ReLU",
	KindMaxPool:       "MaxPool2D",
	KindAvgPool:       "AvgPool2D",
	KindGlobalAvgPool: "GlobalAvgPool",
	KindDense:         "Dense",
	KindFlatten:       "Flatten",
	KindAdd:           "Add",
	KindSoftmax:       "Softmax",
	KindLSTM:          "LSTM",
	KindTakeLast:      "TakeLast",
	KindConcat:        "Concat",
	KindDepthwiseConv: "DepthwiseConv2D",
}

// String returns the operator kind name.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Op is a neural-network operator.
type Op interface {
	// Name returns the operator's instance name (unique within a graph).
	Name() string
	// Kind returns the operator type.
	Kind() Kind
	// OutShape computes the output shape for the given input shapes, or an
	// error if they are invalid for this operator.
	OutShape(in ...[]int) ([]int, error)
	// Forward computes the operator output. Weighted operators must have
	// been initialized (Init or SetWeights) first.
	Forward(in ...*tensor.Tensor) (*tensor.Tensor, error)
	// ForwardInto computes the operator output into dst, which must have
	// the shape OutShape gives for the inputs' shapes.
	ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error
	// FLOPs estimates the floating-point operations for the given input
	// shapes.
	FLOPs(in ...[]int) int64
	// ParamCount is the number of stored fp32 scalars.
	ParamCount() int64
	// Init materializes the operator's weights deterministically from rng.
	// It is a no-op for weight-free operators.
	Init(rng *rand.Rand)
	// Initialized reports whether weights are materialized (always true for
	// weight-free operators).
	Initialized() bool
}

// Weighted is implemented by operators that carry weight tensors, for
// serialization.
type Weighted interface {
	Op
	// Weights returns the operator's weight tensors in a fixed order.
	Weights() []*tensor.Tensor
	// SetWeights installs weight tensors previously produced by Weights.
	SetWeights(ws []*tensor.Tensor) error
}

// Spatial is implemented by operators whose output has a local response
// along the height axis, enabling halo-correct partitioned execution.
type Spatial interface {
	Op
	// HKernel returns the (kernel, stride, padding) triple along height.
	// Element-wise operators return (1, 1, 0).
	HKernel() (k, s, p int)
	// ForwardValidHInto computes the operator into dst without implicit
	// padding along height (width padding, if any, still applies); dst's
	// height is (h-k)/s+1 for an input of height h. The caller supplies any
	// required halo/padding rows explicitly.
	ForwardValidHInto(dst *tensor.Tensor, in ...*tensor.Tensor) error
}

// Aliaser is implemented by operators that compute nothing: their output is
// a contiguous run of their input's elements under another shape (Flatten,
// TakeLast). A caller that keeps the input alive for as long as it uses the
// output can take the view and skip the copy ForwardInto would make.
type Aliaser interface {
	Op
	// Alias returns the operator's output as a view sharing in's storage.
	Alias(in *tensor.Tensor) (*tensor.Tensor, error)
}

// ChannelSliceable is implemented by operators whose output channels (or
// output features) can be computed independently from a slice of the
// weights, enabling channel-partitioned execution.
type ChannelSliceable interface {
	Op
	// OutChannels returns the number of independent output channels.
	OutChannels() int
	// SliceChannels returns an operator computing only output channels
	// [start, end).
	SliceChannels(start, end int) (Op, error)
}

// ParamBytes returns the weight footprint of an op in bytes.
func ParamBytes(op Op) int64 { return op.ParamCount() * 4 }

// forwardNew is every operator's Forward: ForwardInto on a fresh tensor of
// the output shape.
func forwardNew(op Op, in []*tensor.Tensor) (*tensor.Tensor, error) {
	shape, err := outShape(op, in)
	if err != nil {
		return nil, err
	}
	dst := tensor.New(shape...)
	if err := op.ForwardInto(dst, in...); err != nil {
		return nil, err
	}
	return dst, nil
}

// outShape is op.OutShape of the inputs' shapes.
func outShape(op Op, in []*tensor.Tensor) ([]int, error) {
	shapes := make([][]int, len(in))
	for i, x := range in {
		shapes[i] = x.Shape()
	}
	return op.OutShape(shapes...)
}

// checkDst reports a destination that does not have the shape the forward
// is about to produce. The error formats a copy of shape so that the
// variadic stays on the caller's stack.
func checkDst(op Op, dst *tensor.Tensor, shape ...int) error {
	ok := dst.Rank() == len(shape)
	for i := 0; ok && i < len(shape); i++ {
		ok = dst.Dim(i) == shape[i]
	}
	if !ok {
		return fmt.Errorf("nn: %s %q: destination %v, output is %v", op.Kind(), op.Name(), dst.Shape(), append([]int(nil), shape...))
	}
	return nil
}

// checkDstLike is checkDst for an output of x's shape.
func checkDstLike(op Op, dst, x *tensor.Tensor) error {
	if !dst.SameShape(x) {
		return fmt.Errorf("nn: %s %q: destination %v, output is %v", op.Kind(), op.Name(), dst.Shape(), x.Shape())
	}
	return nil
}

func checkRank(op string, in []int, want int) error {
	if len(in) != want {
		return fmt.Errorf("nn: %s expects rank-%d input, got shape %v", op, want, in)
	}
	return nil
}

func checkOneInput(op string, n int) error {
	if n != 1 {
		return fmt.Errorf("nn: %s expects exactly 1 input, got %d", op, n)
	}
	return nil
}

func prod(s []int) int64 {
	p := int64(1)
	for _, d := range s {
		p *= int64(d)
	}
	return p
}

// convOutDim returns the output size of a strided window op along one axis.
func convOutDim(in, k, s, p int) int {
	return (in+2*p-k)/s + 1
}
