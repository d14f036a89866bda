package nn

import (
	"fmt"

	"gillis/internal/tensor"
)

// KindRowWindow identifies the RowWindow operator.
const KindRowWindow Kind = 103

// RowWindow is the window of rows that a spatial part cuts for an operator
// needing other rows than its source holds (partition.PartSlice.Graph): an
// H-row CHW map whose rows [Lo, Hi) are the source's rows [SrcLo,
// SrcLo+Hi-Lo) of every channel, and whose rows above and below — they
// overhang the feature map — hold Fill, the padding the operator would have
// read there (0, or -inf before max pooling). The operator then runs on the
// window with its height padding off (ValidH). The source must have exactly
// the shape In: the rows the part holds of it.
type RowWindow struct {
	weightless
	OpName
	In     []int // CHW
	H      int
	SrcLo  int
	Lo, Hi int
	Fill   float32
}

// Kind implements Op.
func (w *RowWindow) Kind() Kind { return KindRowWindow }

// OutShape implements Op.
func (w *RowWindow) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("RowWindow", len(in)); err != nil {
		return nil, err
	}
	if !tensor.ShapeEqual(in[0], w.In) {
		return nil, w.badInput(in[0])
	}
	if err := w.fits(); err != nil {
		return nil, err
	}
	return []int{w.In[0], w.H, w.In[2]}, nil
}

func (w *RowWindow) badInput(in []int) error {
	return fmt.Errorf("nn: RowWindow %q input has shape %v, want %v", w.OpName, in, w.In)
}

// fits reports a window that does not fit its source.
func (w *RowWindow) fits() error {
	if len(w.In) != 3 || w.Lo < 0 || w.Lo > w.Hi || w.Hi > w.H || w.SrcLo < 0 || w.SrcLo+w.Hi-w.Lo > w.In[1] {
		return fmt.Errorf("nn: RowWindow %q rows [%d,%d) of %d from row %d of %v", w.OpName, w.Lo, w.Hi, w.H, w.SrcLo, w.In)
	}
	return nil
}

// FLOPs implements Op: a copy computes nothing.
func (w *RowWindow) FLOPs(...[]int) int64 { return 0 }

// Forward implements Op.
func (w *RowWindow) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(w, in) }

// ForwardInto implements Op: per channel, fill above, the source's rows,
// fill below. The border is written like any other element, zero included.
func (w *RowWindow) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("RowWindow", len(in)); err != nil {
		return err
	}
	if !in[0].HasShape(w.In) {
		return w.badInput(in[0].Shape())
	}
	if err := w.fits(); err != nil {
		return err
	}
	if err := checkDst(w, dst, w.In[0], w.H, w.In[2]); err != nil {
		return err
	}
	xd, od, width := in[0].Data(), dst.Data(), w.In[2]
	for ci := 0; ci < w.In[0]; ci++ {
		ch := od[ci*w.H*width : (ci+1)*w.H*width]
		fillRows(ch[:w.Lo*width], w.Fill)
		copy(ch[w.Lo*width:w.Hi*width], xd[(ci*w.In[1]+w.SrcLo)*width:])
		fillRows(ch[w.Hi*width:], w.Fill)
	}
	return nil
}

// fillRows sets every element of s to v.
func fillRows(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}
