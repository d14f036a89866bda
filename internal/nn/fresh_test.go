package nn

import "gillis/internal/tensor"

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

// validH is op as a spatial part runs it on rows that carry their halo: a
// copy with ValidH set where op pads height, op itself otherwise.
func validH(op Op) Op {
	switch o := op.(type) {
	case *Conv2D:
		c := *o
		c.ValidH = true
		return &c
	case *DepthwiseConv2D:
		d := *o
		d.ValidH = true
		return &d
	case *MaxPool2D:
		m := *o
		m.ValidH = true
		return &m
	}
	return op
}

// forwardValidH is validH(op)'s forward: op without the implicit padding
// along height.
func forwardValidH(op Op, in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return validH(op).Forward(in...)
}
