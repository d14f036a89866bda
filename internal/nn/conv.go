package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/tensor"
)

// Conv2D is a 2-D convolution with a square kernel, equal stride, and equal
// zero padding on both axes. Input/output layout is CHW.
type Conv2D struct {
	OpName string
	InC    int
	OutC   int
	Kernel int
	Stride int
	Pad    int

	// W has shape [OutC, InC, Kernel, Kernel]; B has shape [OutC].
	W *tensor.Tensor
	B *tensor.Tensor
}

var (
	_ Weighted         = (*Conv2D)(nil)
	_ Spatial          = (*Conv2D)(nil)
	_ ChannelSliceable = (*Conv2D)(nil)
)

// NewConv2D constructs an uninitialized convolution.
func NewConv2D(name string, inC, outC, kernel, stride, pad int) *Conv2D {
	return &Conv2D{OpName: name, InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad}
}

// Name implements Op.
func (c *Conv2D) Name() string { return c.OpName }

// Kind implements Op.
func (c *Conv2D) Kind() Kind { return KindConv }

// OutShape implements Op.
func (c *Conv2D) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("Conv2D", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("Conv2D", s, 3); err != nil {
		return nil, err
	}
	if s[0] != c.InC {
		return nil, fmt.Errorf("nn: Conv2D %q expects %d input channels, got %d", c.OpName, c.InC, s[0])
	}
	oh := convOutDim(s[1], c.Kernel, c.Stride, c.Pad)
	ow := convOutDim(s[2], c.Kernel, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D %q output is empty for input %v", c.OpName, s)
	}
	return []int{c.OutC, oh, ow}, nil
}

// FLOPs implements Op.
func (c *Conv2D) FLOPs(in ...[]int) int64 {
	out, err := c.OutShape(in...)
	if err != nil {
		return 0
	}
	macs := int64(c.OutC) * int64(c.InC) * int64(c.Kernel*c.Kernel) * int64(out[1]) * int64(out[2])
	return 2*macs + prod(out) // + bias add
}

// ParamCount implements Op.
func (c *Conv2D) ParamCount() int64 {
	return int64(c.OutC)*int64(c.InC)*int64(c.Kernel*c.Kernel) + int64(c.OutC)
}

// Init implements Op using He-style uniform initialization.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.Kernel * c.Kernel)
	scale := float32(math.Sqrt(2 / fanIn))
	c.W = tensor.Rand(rng, scale, c.OutC, c.InC, c.Kernel, c.Kernel)
	c.B = tensor.Rand(rng, 0.01, c.OutC)
}

// Initialized implements Op.
func (c *Conv2D) Initialized() bool { return c.W != nil && c.B != nil }

// Weights implements Weighted.
func (c *Conv2D) Weights() []*tensor.Tensor { return []*tensor.Tensor{c.W, c.B} }

// SetWeights implements Weighted.
func (c *Conv2D) SetWeights(ws []*tensor.Tensor) error {
	if len(ws) != 2 {
		return fmt.Errorf("nn: Conv2D %q expects 2 weight tensors, got %d", c.OpName, len(ws))
	}
	if !tensor.ShapeEqual(ws[0].Shape(), []int{c.OutC, c.InC, c.Kernel, c.Kernel}) {
		return fmt.Errorf("nn: Conv2D %q weight shape %v mismatch", c.OpName, ws[0].Shape())
	}
	if !tensor.ShapeEqual(ws[1].Shape(), []int{c.OutC}) {
		return fmt.Errorf("nn: Conv2D %q bias shape %v mismatch", c.OpName, ws[1].Shape())
	}
	c.W, c.B = ws[0], ws[1]
	return nil
}

// Forward implements Op with implicit zero padding on both axes.
func (c *Conv2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return c.forwardOne(in, true, nil)
}

// HKernel implements Spatial.
func (c *Conv2D) HKernel() (k, s, p int) { return c.Kernel, c.Stride, c.Pad }

// ForwardValidH implements Spatial: zero padding is applied along width
// only; the caller has supplied halo rows along height.
func (c *Conv2D) ForwardValidH(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	return c.forwardOne(in, false, nil)
}

// ForwardBatch implements BatchForwarder: the batch's pixels are further
// columns of the one GEMM that Forward runs, so a batched forward is bitwise
// equal to the per-query loop. Inputs must share one shape (the dispatcher
// in batch.go falls back to the loop otherwise).
func (c *Conv2D) ForwardBatch(xs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	return c.forward(xs, true, nil)
}

// forwardOne is forward for the single-input Op entry points.
func (c *Conv2D) forwardOne(in []*tensor.Tensor, padH bool, epi *epilogue) (*tensor.Tensor, error) {
	if err := checkOneInput("Conv2D", len(in)); err != nil {
		return nil, err
	}
	outs, err := c.forward(in, padH, epi)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// forward lowers the convolution of every xs[e] onto the GEMM engine as an
// implicit GEMM: gemmBias multiplies the [OutC][InC*K*K] weight rows against
// the im2col matrix of the inputs, which is never built — convCols hands the
// engine one stretch of one matrix row at a time, read straight from the
// input tensor, and the engine packs it into its blocked panels. Zero
// padding is synthesized while packing (out-of-range pixels become zero
// panel entries), identical bitwise to convolving an explicitly padded copy
// but without staging one. Each output element accumulates its K terms
// strictly in (ic, ky, kx) order — the accumulation-order contract in
// gemm.go — so outputs are bitwise identical at every parallelism level,
// batch size, and under spatial/channel partitioning. epi, if non-nil, is a
// fused per-channel post-op applied to finished rows (see fused.go).
func (c *Conv2D) forward(xs []*tensor.Tensor, padH bool, epi *epilogue) ([]*tensor.Tensor, error) {
	if len(xs) == 0 {
		return nil, nil
	}
	if !c.Initialized() {
		return nil, fmt.Errorf("nn: Conv2D %q has no weights", c.OpName)
	}
	for _, x := range xs {
		if x.Rank() != 3 || x.Dim(0) != c.InC {
			return nil, fmt.Errorf("nn: Conv2D %q bad input %v", c.OpName, x.Shape())
		}
		if !tensor.ShapeEqual(x.Shape(), xs[0].Shape()) {
			return nil, fmt.Errorf("nn: Conv2D %q batch mixes shapes %v and %v", c.OpName, xs[0].Shape(), x.Shape())
		}
	}
	cc := convCols{h: xs[0].Dim(1), w: xs[0].Dim(2), kernel: c.Kernel, stride: c.Stride, padL: c.Pad}
	if padH {
		cc.padTop = c.Pad
	}
	cc.oh = (cc.h+2*cc.padTop-c.Kernel)/c.Stride + 1
	cc.ow = (cc.w+2*cc.padL-c.Kernel)/c.Stride + 1
	if cc.oh <= 0 || cc.ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D %q empty output for input %v", c.OpName, xs[0].Shape())
	}
	outs := make([]*tensor.Tensor, len(xs))
	ods := make([][]float32, len(xs))
	cc.xs = make([][]float32, len(xs))
	for e, x := range xs {
		outs[e] = tensor.New(c.OutC, cc.oh, cc.ow)
		ods[e], cc.xs[e] = outs[e].Data(), x.Data()
	}
	gemmBias(c.OutC, cc.oh*cc.ow, c.InC*c.Kernel*c.Kernel, c.W.Data(), c.B.Data(), &cc, ods, epi)
	return outs, nil
}

// convCols is the im2col matrix of one (batched) forward, unbuilt: row p is
// the (ic, ky, kx) triple p, column j the output pixel (j/ow, j%ow), and the
// entry is the input pixel that tap reads for that output, or zero in the
// padding.
type convCols struct {
	xs             [][]float32 // CHW input data per batch element
	h, w, oh, ow   int
	kernel, stride int
	padTop, padL   int
}

// row writes columns [j0, j0+len(dst)) of matrix row p of batch
// element e.
func (cc *convCols) row(e, p, j0 int, dst []float32) {
	xd := cc.xs[e]
	k, s := cc.kernel, cc.stride
	ic, tap := p/(k*k), p%(k*k)
	ky, kx := tap/k, tap%k
	// [ox0, ox1) are the output columns whose tap lands inside an input
	// row: 0 <= ox*s+off < w.
	off := kx - cc.padL
	ox0, ox1 := 0, 0
	if off < 0 {
		ox0 = (-off + s - 1) / s
	}
	if last := cc.w - 1 - off; last >= 0 {
		ox1 = min(last/s+1, cc.ow)
	}
	if s == 1 && cc.ow == cc.w {
		// A stride-1 convolution that keeps the width: output column j reads
		// input index j+shift wherever its tap is inside the input, so the
		// stretch is one copy, minus the output rows whose tap row is above
		// or below the input, with the taps left and right of it zeroed
		// afterwards (the copy put the neighbouring row's end there).
		shift := (ic*cc.h+ky-cc.padTop)*cc.w + off
		j1 := j0 + len(dst)
		a := min(max(j0, (cc.padTop-ky)*cc.ow), j1)
		b := max(a, min(j1, (cc.h+cc.padTop-ky)*cc.ow))
		clear(dst[:a-j0])
		clear(dst[b-j0:])
		// Only padding taps of the first and last input row fall outside xd.
		if ca, cb := max(a, -shift), min(b, len(xd)-shift); ca < cb {
			copy(dst[ca-j0:cb-j0], xd[ca+shift:cb+shift])
		}
		if ox0 > 0 || ox1 < cc.ow {
			for r := a - a%cc.ow; r < b; r += cc.ow {
				for j := max(r, a); j < min(r+ox0, b); j++ {
					dst[j-j0] = 0
				}
				for j := max(r+ox1, a); j < min(r+cc.ow, b); j++ {
					dst[j-j0] = 0
				}
			}
		}
		return
	}
	// Otherwise the stretch is cut at output-row ends; oxa is where the
	// current piece starts in its output row oy, y the input row its taps
	// read and src the index of the tap of that row's column 0.
	oy, oxa := j0/cc.ow, j0%cc.ow
	y := oy*s + ky - cc.padTop
	src := (ic*cc.h+y)*cc.w + off
	for len(dst) > 0 {
		n := min(cc.ow-oxa, len(dst))
		seg := dst[:n]
		dst = dst[n:]
		lo, hi := max(ox0, oxa), min(ox1, oxa+n)
		if y < 0 || y >= cc.h || lo >= hi {
			clear(seg)
		} else {
			clear(seg[:lo-oxa])
			in, d := xd[src+lo*s:src+(hi-1)*s+1], seg[lo-oxa:hi-oxa]
			if s == 1 {
				copy(d, in)
			} else {
				for i := range d {
					d[i] = in[i*s]
				}
			}
			clear(seg[hi-oxa:])
		}
		oxa, y, src = 0, y+s, src+s*cc.w
	}
}

// OutChannels implements ChannelSliceable.
func (c *Conv2D) OutChannels() int { return c.OutC }

// SliceChannels implements ChannelSliceable: the returned convolution keeps
// filters [start, end) and computes the corresponding output channels.
func (c *Conv2D) SliceChannels(start, end int) (Op, error) {
	if start < 0 || end > c.OutC || start >= end {
		return nil, fmt.Errorf("nn: Conv2D %q channel slice [%d,%d) out of range %d", c.OpName, start, end, c.OutC)
	}
	out := NewConv2D(fmt.Sprintf("%s[%d:%d]", c.OpName, start, end), c.InC, end-start, c.Kernel, c.Stride, c.Pad)
	if c.Initialized() {
		w, err := c.W.SliceDim(0, start, end)
		if err != nil {
			return nil, err
		}
		b, err := c.B.SliceDim(0, start, end)
		if err != nil {
			return nil, err
		}
		out.W, out.B = w, b
	}
	return out, nil
}
