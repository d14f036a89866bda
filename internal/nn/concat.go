package nn

import (
	"fmt"

	"gillis/internal/tensor"
)

// KindConcat identifies the Concat operator.
const KindConcat Kind = 101

// Concat concatenates CHW feature maps along the channel dimension — the
// join of Inception-style branch modules (paper Fig. 5). Spatial dimensions
// must agree across inputs.
type Concat struct {
	weightless
	rowLocal
	OpName
}

var _ Spatial = (*Concat)(nil)

// NewConcat constructs a channel concatenation operator.
func NewConcat(name string) *Concat { return &Concat{OpName: OpName(name)} }

// Kind implements Op.
func (c *Concat) Kind() Kind { return KindConcat }

// OutShape implements Op.
func (c *Concat) OutShape(in ...[]int) ([]int, error) {
	if len(in) < 2 {
		return nil, fmt.Errorf("nn: Concat %q expects >= 2 inputs, got %d", c.OpName, len(in))
	}
	channels := 0
	for i, s := range in {
		if len(s) != 3 {
			return nil, fmt.Errorf("nn: Concat %q input %d must be CHW, got %v", c.OpName, i, s)
		}
		if s[1] != in[0][1] || s[2] != in[0][2] {
			return nil, fmt.Errorf("nn: Concat %q spatial mismatch %v vs %v", c.OpName, s, in[0])
		}
		channels += s[0]
	}
	return []int{channels, in[0][1], in[0][2]}, nil
}

// FLOPs implements Op (a copy per element).
func (c *Concat) FLOPs(in ...[]int) int64 {
	var total int64
	for _, s := range in {
		total += prod(s)
	}
	return total
}

// Forward implements Op.
func (c *Concat) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(c, in) }

// ForwardInto implements Op: channels are the outermost dimension, so the
// output is the inputs' elements one after the other.
func (c *Concat) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if len(in) < 2 {
		return fmt.Errorf("nn: Concat %q expects >= 2 inputs, got %d", c.OpName, len(in))
	}
	channels := 0
	for i, x := range in {
		if x.Rank() != 3 || in[0].Rank() != 3 || x.Dim(1) != in[0].Dim(1) || x.Dim(2) != in[0].Dim(2) {
			return fmt.Errorf("nn: Concat %q input %d is %v, input 0 is %v", c.OpName, i, x.Shape(), in[0].Shape())
		}
		channels += x.Dim(0)
	}
	if err := checkDst(c, dst, channels, in[0].Dim(1), in[0].Dim(2)); err != nil {
		return err
	}
	od := dst.Data()
	for _, x := range in {
		od = od[copy(od, x.Data()):]
	}
	return nil
}
