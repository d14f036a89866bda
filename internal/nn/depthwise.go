package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// KindDepthwiseConv identifies the DepthwiseConv2D operator.
const KindDepthwiseConv Kind = 102

// DepthwiseConv2D convolves each input channel with its own square filter
// (the MobileNet building block). Output channel c depends only on input
// channel c, so the operator is both spatially local and channel-sliceable;
// a channel slice carries the (Lo, Hi) window and extracts its input
// channels itself, since the runtime ships the full input to channel
// partitions.
type DepthwiseConv2D struct {
	OpName string
	C      int
	Kernel int
	Stride int
	Pad    int

	// Lo/Hi select the input-channel window of a channel slice; (0, C) for
	// the unsliced operator.
	Lo, Hi int

	// W has shape [Hi-Lo, Kernel, Kernel]; B has shape [Hi-Lo].
	W *tensor.Tensor
	B *tensor.Tensor
}

var (
	_ Weighted         = (*DepthwiseConv2D)(nil)
	_ Spatial          = (*DepthwiseConv2D)(nil)
	_ ChannelSliceable = (*DepthwiseConv2D)(nil)
)

// NewDepthwiseConv2D constructs an uninitialized depthwise convolution.
func NewDepthwiseConv2D(name string, c, kernel, stride, pad int) *DepthwiseConv2D {
	return &DepthwiseConv2D{OpName: name, C: c, Kernel: kernel, Stride: stride, Pad: pad, Lo: 0, Hi: c}
}

// Name implements Op.
func (d *DepthwiseConv2D) Name() string { return d.OpName }

// Kind implements Op.
func (d *DepthwiseConv2D) Kind() Kind { return KindDepthwiseConv }

func (d *DepthwiseConv2D) span() int { return d.Hi - d.Lo }

// OutShape implements Op. The input always carries all C channels; a slice
// produces only its window's channels.
func (d *DepthwiseConv2D) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("DepthwiseConv2D", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("DepthwiseConv2D", s, 3); err != nil {
		return nil, err
	}
	if s[0] != d.C {
		return nil, fmt.Errorf("nn: DepthwiseConv2D %q expects %d channels, got %d", d.OpName, d.C, s[0])
	}
	oh := convOutDim(s[1], d.Kernel, d.Stride, d.Pad)
	ow := convOutDim(s[2], d.Kernel, d.Stride, d.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: DepthwiseConv2D %q output empty for input %v", d.OpName, s)
	}
	return []int{d.span(), oh, ow}, nil
}

// FLOPs implements Op.
func (d *DepthwiseConv2D) FLOPs(in ...[]int) int64 {
	out, err := d.OutShape(in...)
	if err != nil {
		return 0
	}
	return 2*int64(out[0])*int64(d.Kernel*d.Kernel)*int64(out[1])*int64(out[2]) + prod(out)
}

// ParamCount implements Op.
func (d *DepthwiseConv2D) ParamCount() int64 {
	return int64(d.span())*int64(d.Kernel*d.Kernel) + int64(d.span())
}

// Init implements Op.
func (d *DepthwiseConv2D) Init(rng *rand.Rand) {
	scale := float32(math.Sqrt(2 / float64(d.Kernel*d.Kernel)))
	d.W = tensor.Rand(rng, scale, d.span(), d.Kernel, d.Kernel)
	d.B = tensor.Rand(rng, 0.01, d.span())
}

// Initialized implements Op.
func (d *DepthwiseConv2D) Initialized() bool { return d.W != nil && d.B != nil }

// Weights implements Weighted.
func (d *DepthwiseConv2D) Weights() []*tensor.Tensor { return []*tensor.Tensor{d.W, d.B} }

// SetWeights implements Weighted.
func (d *DepthwiseConv2D) SetWeights(ws []*tensor.Tensor) error {
	if len(ws) != 2 {
		return fmt.Errorf("nn: DepthwiseConv2D %q expects 2 weight tensors, got %d", d.OpName, len(ws))
	}
	if !tensor.ShapeEqual(ws[0].Shape(), []int{d.span(), d.Kernel, d.Kernel}) ||
		!tensor.ShapeEqual(ws[1].Shape(), []int{d.span()}) {
		return fmt.Errorf("nn: DepthwiseConv2D %q weight shape mismatch", d.OpName)
	}
	d.W, d.B = ws[0], ws[1]
	return nil
}

// Forward implements Op.
func (d *DepthwiseConv2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return forwardNew(d, in)
}

// ForwardInto implements Op.
func (d *DepthwiseConv2D) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return d.forward(dst, in, true)
}

// HKernel implements Spatial.
func (d *DepthwiseConv2D) HKernel() (k, s, p int) { return d.Kernel, d.Stride, d.Pad }

// ForwardValidHInto implements Spatial.
func (d *DepthwiseConv2D) ForwardValidHInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return d.forward(dst, in, false)
}

func (d *DepthwiseConv2D) forward(dst *tensor.Tensor, in []*tensor.Tensor, padH bool) error {
	if err := checkOneInput("DepthwiseConv2D", len(in)); err != nil {
		return err
	}
	if !d.Initialized() {
		return fmt.Errorf("nn: DepthwiseConv2D %q has no weights", d.OpName)
	}
	x := in[0]
	if x.Rank() != 3 || x.Dim(0) != d.C {
		return fmt.Errorf("nn: DepthwiseConv2D %q bad input %v", d.OpName, x.Shape())
	}
	// Windows are read directly from the input with clipped indexing —
	// no staged padded/sliced copy. Boundary windows still accumulate an
	// explicit zero term per out-of-range tap, so every output element sees
	// exactly the terms (and rounding) a zero-padded copy would produce.
	span, h, w := d.span(), x.Dim(1), x.Dim(2)
	xd := x.Data()
	padTop := 0
	if padH {
		padTop = d.Pad
	}
	padL := d.Pad
	oh := (h+2*padTop-d.Kernel)/d.Stride + 1
	ow := (w+2*padL-d.Kernel)/d.Stride + 1
	if oh <= 0 || ow <= 0 {
		return fmt.Errorf("nn: DepthwiseConv2D %q empty output", d.OpName)
	}
	if err := checkDst(d, dst, span, oh, ow); err != nil {
		return err
	}
	wd, bd, od := d.W.Data(), d.B.Data(), dst.Data()
	k := d.Kernel
	// Output channel c depends only on input channel c: parallelizing over
	// channels splits no reduction, so outputs are bitwise identical at
	// every parallelism level.
	// Interior output rows/columns — whose windows never touch padding —
	// are resolved once, outside the pixel loops, so the hot path is as
	// branch-free as the staged-copy version was.
	oyLo := min(max(ceilDiv(padTop, d.Stride), 0), oh)
	oyHi := min(max((h-k+padTop)/d.Stride+1, oyLo), oh)
	oxLo := min(max(ceilDiv(padL, d.Stride), 0), ow)
	oxHi := min(max((w-k+padL)/d.Stride+1, oxLo), ow)
	par.For(span, 2*oh*ow*k*k, func(lo, hi int) {
		for c := lo; c < hi; c++ {
			bias := bd[c]
			wRows := wd[c*k*k : (c+1)*k*k]
			src := (d.Lo + c) * h * w
			// boundary computes one pixel whose window may overlap the
			// padding: clipped taps accumulate from the input, out-of-range
			// taps accumulate an explicit zero term, all in (ky, kx) order.
			boundary := func(oy, ox int) float32 {
				y0 := oy*d.Stride - padTop
				x0 := ox*d.Stride - padL
				kx0 := max(-x0, 0)
				kx1 := max(min(w-x0, k), kx0)
				acc := bias
				for ky := 0; ky < k; ky++ {
					y := y0 + ky
					wRow := wRows[ky*k : (ky+1)*k]
					if y < 0 || y >= h {
						for _, wv := range wRow {
							acc += 0 * wv
						}
						continue
					}
					for _, wv := range wRow[:kx0] {
						acc += 0 * wv
					}
					rowBase := src + y*w + x0
					acc = dotAcc(acc, xd[rowBase+kx0:rowBase+kx1], wRow[kx0:kx1])
					for _, wv := range wRow[kx1:] {
						acc += 0 * wv
					}
				}
				return acc
			}
			for oy := 0; oy < oh; oy++ {
				rowOut := od[(c*oh+oy)*ow : (c*oh+oy+1)*ow]
				if oy < oyLo || oy >= oyHi {
					for ox := 0; ox < ow; ox++ {
						rowOut[ox] = boundary(oy, ox)
					}
					continue
				}
				for ox := 0; ox < oxLo; ox++ {
					rowOut[ox] = boundary(oy, ox)
				}
				base := src + (oy*d.Stride-padTop)*w - padL
				if k == 3 {
					// Fully unrolled 3x3 taps in the same strict (ky, kx)
					// order — the MobileNet hot path.
					w00, w01, w02 := wRows[0], wRows[1], wRows[2]
					w10, w11, w12 := wRows[3], wRows[4], wRows[5]
					w20, w21, w22 := wRows[6], wRows[7], wRows[8]
					for ox := oxLo; ox < oxHi; ox++ {
						r0 := base + ox*d.Stride
						r1, r2 := r0+w, r0+2*w
						acc := bias
						acc += xd[r0] * w00
						acc += xd[r0+1] * w01
						acc += xd[r0+2] * w02
						acc += xd[r1] * w10
						acc += xd[r1+1] * w11
						acc += xd[r1+2] * w12
						acc += xd[r2] * w20
						acc += xd[r2+1] * w21
						acc += xd[r2+2] * w22
						rowOut[ox] = acc
					}
				} else {
					for ox := oxLo; ox < oxHi; ox++ {
						x0 := base + ox*d.Stride
						acc := bias
						for ky := 0; ky < k; ky++ {
							row := x0 + ky*w
							acc = dotAcc(acc, xd[row:row+k], wRows[ky*k:(ky+1)*k])
						}
						rowOut[ox] = acc
					}
				}
				for ox := oxHi; ox < ow; ox++ {
					rowOut[ox] = boundary(oy, ox)
				}
			}
		}
	})
	return nil
}

// ceilDiv returns ceil(a/b) for non-negative a and positive b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// OutChannels implements ChannelSliceable.
func (d *DepthwiseConv2D) OutChannels() int { return d.span() }

// SliceChannels implements ChannelSliceable: the slice keeps filters
// [start, end) of this operator's window and extracts the matching input
// channels itself.
func (d *DepthwiseConv2D) SliceChannels(start, end int) (Op, error) {
	if start < 0 || end > d.span() || start >= end {
		return nil, fmt.Errorf("nn: DepthwiseConv2D %q channel slice [%d,%d) out of range %d", d.OpName, start, end, d.span())
	}
	out := NewDepthwiseConv2D(fmt.Sprintf("%s[%d:%d]", d.OpName, start, end), d.C, d.Kernel, d.Stride, d.Pad)
	out.Lo, out.Hi = d.Lo+start, d.Lo+end
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
