package nn

import (
	"fmt"

	"gillis/internal/tensor"
)

// forwardBatch is ForwardBatchInto on fresh tensors of the output shapes:
// one input list per query in, one output per query back.
func forwardBatch(op Op, ins [][]*tensor.Tensor) ([]*tensor.Tensor, error) {
	if len(ins) == 0 {
		return nil, nil
	}
	outs := make([]*tensor.Tensor, len(ins))
	for e, in := range ins {
		shape, err := outShape(op, in)
		if err != nil {
			return nil, err
		}
		outs[e] = tensor.New(shape...)
	}
	if err := ForwardBatchInto(op, outs, ins); err != nil {
		return nil, err
	}
	return outs, nil
}

// forwardValidH is ForwardValidHInto on a fresh tensor of the output shape
// without the implicit padding along height.
func forwardValidH(op Spatial, in ...*tensor.Tensor) (*tensor.Tensor, error) {
	shape, err := outShape(op, in)
	if err != nil {
		return nil, err
	}
	// Only a CHW input has a height; the element-wise operators take any
	// rank and keep it.
	if x := in[0]; x.Rank() == 3 {
		k, s, _ := op.HKernel()
		if x.Dim(1) < k {
			return nil, fmt.Errorf("nn: %s %q: input height %d under the kernel's %d", op.Kind(), op.Name(), x.Dim(1), k)
		}
		shape[1] = (x.Dim(1)-k)/s + 1
	}
	dst := tensor.New(shape...)
	if err := op.ForwardValidHInto(dst, in...); err != nil {
		return nil, err
	}
	return dst, nil
}
