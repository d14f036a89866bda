package nn

import (
	"fmt"
	"math"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// MaxPool2D is a 2-D max pooling operator with a square window. Padding
// positions act as -inf, matching standard framework semantics. ValidH turns
// the padding along height off, as Conv2D's does.
type MaxPool2D struct {
	weightless
	OpName
	Kernel int
	Stride int
	Pad    int
	ValidH bool
}

var _ Spatial = (*MaxPool2D)(nil)

// NewMaxPool2D constructs a max-pooling operator.
func NewMaxPool2D(name string, kernel, stride, pad int) *MaxPool2D {
	return &MaxPool2D{OpName: OpName(name), Kernel: kernel, Stride: stride, Pad: pad}
}

// Kind implements Op.
func (m *MaxPool2D) Kind() Kind { return KindMaxPool }

// OutShape implements Op.
func (m *MaxPool2D) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("MaxPool2D", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("MaxPool2D", s, 3); err != nil {
		return nil, err
	}
	oh := convOutDim(s[1], m.Kernel, m.Stride, m.padH())
	ow := convOutDim(s[2], m.Kernel, m.Stride, m.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: MaxPool2D %q output is empty for input %v", m.OpName, s)
	}
	return []int{s[0], oh, ow}, nil
}

// FLOPs implements Op (one compare per window element).
func (m *MaxPool2D) FLOPs(in ...[]int) int64 {
	out, err := m.OutShape(in...)
	if err != nil {
		return 0
	}
	return prod(out) * int64(m.Kernel*m.Kernel)
}

// Forward implements Op.
func (m *MaxPool2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(m, in) }

// HKernel implements Spatial.
func (m *MaxPool2D) HKernel() (k, s, p int) { return m.Kernel, m.Stride, m.Pad }

// padH is the padding along height: none with ValidH.
func (m *MaxPool2D) padH() int {
	if m.ValidH {
		return 0
	}
	return m.Pad
}

// ForwardInto implements Op.
func (m *MaxPool2D) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("MaxPool2D", len(in)); err != nil {
		return err
	}
	x := in[0]
	if x.Rank() != 3 {
		return fmt.Errorf("nn: MaxPool2D %q bad input %v", m.OpName, x.Shape())
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	padTop := m.padH()
	// Output size over the (virtually) padded extent.
	hExt := h + 2*padTop
	wExt := w + 2*m.Pad
	oh := (hExt-m.Kernel)/m.Stride + 1
	ow := (wExt-m.Kernel)/m.Stride + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("nn: MaxPool2D %q empty output for input %v", m.OpName, x.Shape())
	}
	if err := checkDst(m, dst, c, oh, ow); err != nil {
		return err
	}
	xd, od := x.Data(), dst.Data()
	negInf := float32(math.Inf(-1))
	k, s, t := m.Kernel, m.Stride, tile
	// Channels are independent: parallelizing over them preserves bitwise
	// outputs at every parallelism level.
	par.For(c, oh*ow*k*k, func(lo, hi int) {
		// span[kx] is tapColumns for window column kx, worked out once per
		// worker. Windows wider than the array are rare enough to allocate
		// for.
		var stack [8][2]int
		span := stack[:]
		if k > len(stack) {
			span = make([][2]int, k)
		}
		for kx := range span[:k] {
			span[kx][0], span[kx][1] = tapColumns(kx-m.Pad, s, w, ow)
		}
		// Row-wise: an output row starts at -Inf and takes the window's taps
		// one (ky, kx) at a time, each a bounds-free stretch of one input
		// row. Every output still sees its taps in (ky, kx) order, so the
		// result is the one of the element-by-element walk
		// `if v > best { best = v }`: the first occurrence of the maximum,
		// never a NaN.
		for ci := lo; ci < hi; ci++ {
			for oy := 0; oy < oh; oy++ {
				o := od[(ci*oh+oy)*ow : (ci*oh+oy+1)*ow]
				for i := range o {
					o[i] = negInf
				}
				for ky := 0; ky < k; ky++ {
					y := oy*s - padTop + ky
					if y < 0 || y >= h {
						continue
					}
					in := xd[(ci*h+y)*w : (ci*h+y+1)*w]
					for kx, sp := range span[:k] {
						if ox0, ox1 := sp[0], sp[1]; ox0 < ox1 {
							t.maxRow(o[ox0:ox1], in[ox0*s+kx-m.Pad:], s)
						}
					}
				}
			}
		}
	})
	return nil
}

// AvgPool2D is a 2-D average pooling operator without padding support (the
// benchmark models never average-pool with padding).
type AvgPool2D struct {
	weightless
	OpName
	Kernel int
	Stride int
}

var _ Spatial = (*AvgPool2D)(nil)

// NewAvgPool2D constructs an average-pooling operator.
func NewAvgPool2D(name string, kernel, stride int) *AvgPool2D {
	return &AvgPool2D{OpName: OpName(name), Kernel: kernel, Stride: stride}
}

// Kind implements Op.
func (a *AvgPool2D) Kind() Kind { return KindAvgPool }

// OutShape implements Op.
func (a *AvgPool2D) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("AvgPool2D", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("AvgPool2D", s, 3); err != nil {
		return nil, err
	}
	oh := convOutDim(s[1], a.Kernel, a.Stride, 0)
	ow := convOutDim(s[2], a.Kernel, a.Stride, 0)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: AvgPool2D %q output is empty for input %v", a.OpName, s)
	}
	return []int{s[0], oh, ow}, nil
}

// FLOPs implements Op.
func (a *AvgPool2D) FLOPs(in ...[]int) int64 {
	out, err := a.OutShape(in...)
	if err != nil {
		return 0
	}
	return prod(out) * int64(a.Kernel*a.Kernel)
}

// Forward implements Op.
func (a *AvgPool2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(a, in) }

// HKernel implements Spatial.
func (a *AvgPool2D) HKernel() (k, s, p int) { return a.Kernel, a.Stride, 0 }

// ForwardInto implements Op.
func (a *AvgPool2D) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("AvgPool2D", len(in)); err != nil {
		return err
	}
	x := in[0]
	if x.Rank() != 3 {
		return fmt.Errorf("nn: AvgPool2D %q bad input %v", a.OpName, x.Shape())
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := (h-a.Kernel)/a.Stride + 1
	ow := (w-a.Kernel)/a.Stride + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("nn: AvgPool2D %q empty output for input %v", a.OpName, x.Shape())
	}
	if err := checkDst(a, dst, c, oh, ow); err != nil {
		return err
	}
	xd, od := x.Data(), dst.Data()
	norm := 1 / float32(a.Kernel*a.Kernel)
	// Channels are independent: parallelizing over them preserves bitwise
	// outputs at every parallelism level.
	par.For(c, oh*ow*a.Kernel*a.Kernel, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					var acc float32
					for ky := 0; ky < a.Kernel; ky++ {
						row := (ci*h + oy*a.Stride + ky) * w
						for kx := 0; kx < a.Kernel; kx++ {
							acc += xd[row+ox*a.Stride+kx]
						}
					}
					od[(ci*oh+oy)*ow+ox] = acc * norm
				}
			}
		}
	})
	return nil
}

// GlobalAvgPool averages each channel's full feature map, producing a rank-1
// tensor of per-channel means.
type GlobalAvgPool struct {
	weightless
	OpName
}

var _ Op = (*GlobalAvgPool)(nil)

// NewGlobalAvgPool constructs a global average pooling operator.
func NewGlobalAvgPool(name string) *GlobalAvgPool { return &GlobalAvgPool{OpName: OpName(name)} }

// Kind implements Op.
func (g *GlobalAvgPool) Kind() Kind { return KindGlobalAvgPool }

// OutShape implements Op.
func (g *GlobalAvgPool) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("GlobalAvgPool", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("GlobalAvgPool", s, 3); err != nil {
		return nil, err
	}
	return []int{s[0]}, nil
}

// FLOPs implements Op.
func (g *GlobalAvgPool) FLOPs(in ...[]int) int64 {
	if len(in) != 1 || len(in[0]) != 3 {
		return 0
	}
	return prod(in[0])
}

// Forward implements Op.
func (g *GlobalAvgPool) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return forwardNew(g, in)
}

// ForwardInto implements Op.
func (g *GlobalAvgPool) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("GlobalAvgPool", len(in)); err != nil {
		return err
	}
	x := in[0]
	if x.Rank() != 3 {
		return fmt.Errorf("nn: GlobalAvgPool %q bad input %v", g.OpName, x.Shape())
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	if err := checkDst(g, dst, c); err != nil {
		return err
	}
	xd, od := x.Data(), dst.Data()
	norm := 1 / float32(h*w)
	// Per-channel means are independent reductions; the per-channel
	// accumulation order is unchanged under parallelism.
	par.For(c, h*w, func(lo, hi int) {
		for ci := lo; ci < hi; ci++ {
			var acc float32
			for i := ci * h * w; i < (ci+1)*h*w; i++ {
				acc += xd[i]
			}
			od[ci] = acc * norm
		}
	})
	return nil
}
