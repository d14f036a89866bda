package nn

import "gillis/internal/tensor"

// Cross-query batching dispatch. A batched forward must be *bitwise
// identical* to running the per-query loop — batching is a scheduling
// optimization, never a numerics change — so the fast paths only widen the
// parallel index space: for Conv2D/FusedConv2D the batch's pixels are more
// columns of the one blocked GEMM, for Dense/FusedDense and LSTM the index
// space is batch×bands, each band reading only its own element (see
// gemm.go). Those ops' Forward is the one-element call of the same body.
// Everything else, and any batch that mixes input shapes, falls back to the
// per-query loop, which is the equivalence baseline by definition.

// BatchForwarder is implemented by single-input operators with a dedicated
// batched forward. Implementations may assume all inputs share one shape;
// ForwardBatch (the dispatcher) checks that before taking the fast path.
type BatchForwarder interface {
	ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error)
}

// ForwardBatch applies op to a batch of input lists, one list per query.
// Single-input ops implementing BatchForwarder with shape-uniform inputs
// take the batched kernel path; everything else loops op.Forward per query.
// Both paths produce bitwise-identical outputs.
func ForwardBatch(op Op, ins [][]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	if bf, ok := op.(BatchForwarder); ok && uniformSingleInput(ins) {
		xs := make([]*tensor.Tensor, len(ins))
		for e, in := range ins {
			xs[e] = in[0]
		}
		return bf.ForwardBatch(xs)
	}
	outs := make([]*tensor.Tensor, len(ins))
	for e, in := range ins {
		out, err := op.Forward(in...)
		if err != nil {
			return nil, err
		}
		outs[e] = out
	}
	return outs, nil
}

// uniformSingleInput reports whether every query has exactly one input and
// all inputs share one shape — the precondition of the batched fast paths.
func uniformSingleInput(ins [][]*tensor.Tensor) bool {
	if len(ins[0]) != 1 {
		return false
	}
	shape := ins[0][0].Shape()
	for _, in := range ins[1:] {
		if len(in) != 1 || !tensor.ShapeEqual(in[0].Shape(), shape) {
			return false
		}
	}
	return true
}

var (
	_ BatchForwarder = (*Conv2D)(nil)
	_ BatchForwarder = (*FusedConv2D)(nil)
	_ BatchForwarder = (*Dense)(nil)
	_ BatchForwarder = (*FusedDense)(nil)
	_ BatchForwarder = (*LSTM)(nil)
)
