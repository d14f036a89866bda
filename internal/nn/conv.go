package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/tensor"
)

// Conv2D is a 2-D convolution with a square kernel, equal stride, and equal
// zero padding on both axes. Input/output layout is CHW.
//
// ValidH turns the padding along height off (width keeps it): the
// convolution a spatial part runs on rows that already carry their halo
// (partition.PartSlice.Graph sets it on a copy that shares the weights).
//
// Scale, Shift and Relu are the layer's epilogue, the BatchNorm and ReLU
// that graph.Fuse folds into it: y = conv(x)*Scale[c] + Shift[c], then
// max(y, 0). They run on each finished output tile of the GEMM (gemm.go)
// while it is still cache-resident, with exactly the arithmetic of the
// standalone BatchNorm and ReLU forwards, so folding them in never changes
// an output bit. A folded BatchNorm stores two per-channel vectors instead of
// four and costs two FLOPs per output element; the ReLU costs none.
type Conv2D struct {
	OpName
	InC    int
	OutC   int
	Kernel int
	Stride int
	Pad    int

	// W has shape [OutC, InC, Kernel, Kernel]; B has shape [OutC].
	W *tensor.Tensor
	B *tensor.Tensor

	// BN says a BatchNorm is folded in. Its affine is Scale and Shift, of
	// shape [OutC], which like W and B are nil until the weights are set.
	BN    bool
	Scale *tensor.Tensor
	Shift *tensor.Tensor
	Relu  bool

	ValidH bool
}

var (
	_ Weighted         = (*Conv2D)(nil)
	_ Spatial          = (*Conv2D)(nil)
	_ ChannelSliceable = (*Conv2D)(nil)
)

// NewConv2D constructs an uninitialized convolution.
func NewConv2D(name string, inC, outC, kernel, stride, pad int) *Conv2D {
	return &Conv2D{OpName: OpName(name), InC: inC, OutC: outC, Kernel: kernel, Stride: stride, Pad: pad}
}

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
	oh := convOutDim(s[1], c.Kernel, c.Stride, c.padH())
	ow := convOutDim(s[2], c.Kernel, c.Stride, c.Pad)
	if oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("nn: Conv2D %q output is empty for input %v", c.OpName, s)
	}
	return []int{c.OutC, oh, ow}, nil
}

// FLOPs implements Op: the multiply-adds, the bias add and, with a folded
// BatchNorm, its multiply and add.
func (c *Conv2D) FLOPs(in ...[]int) int64 {
	out, err := c.OutShape(in...)
	if err != nil {
		return 0
	}
	macs := int64(c.OutC) * int64(c.InC) * int64(c.Kernel*c.Kernel) * int64(out[1]) * int64(out[2])
	flops := 2*macs + prod(out) // + bias add
	if c.BN {
		flops += 2 * prod(out)
	}
	return flops
}

// ParamCount implements Op.
func (c *Conv2D) ParamCount() int64 {
	n := int64(c.OutC)*int64(c.InC)*int64(c.Kernel*c.Kernel) + int64(c.OutC)
	if c.BN {
		n += 2 * int64(c.OutC)
	}
	return n
}

// Init implements Op using He-style uniform initialization; a folded
// BatchNorm draws a scale near 1 and a small shift after the bias.
func (c *Conv2D) Init(rng *rand.Rand) {
	fanIn := float64(c.InC * c.Kernel * c.Kernel)
	scale := float32(math.Sqrt(2 / fanIn))
	c.W = tensor.Rand(rng, scale, c.OutC, c.InC, c.Kernel, c.Kernel)
	c.B = tensor.Rand(rng, 0.01, c.OutC)
	if c.BN {
		c.Scale = tensor.Rand(rng, 0.1, c.OutC)
		for i, v := range c.Scale.Data() {
			c.Scale.Data()[i] = 1 + v
		}
		c.Shift = tensor.Rand(rng, 0.1, c.OutC)
	}
}

// Initialized implements Op.
func (c *Conv2D) Initialized() bool { return c.W != nil && c.B != nil && (!c.BN || c.Scale != nil) }

// Weights implements Weighted: W, B, then Scale and Shift if a BatchNorm is
// folded in.
func (c *Conv2D) Weights() []*tensor.Tensor {
	if c.BN {
		return []*tensor.Tensor{c.W, c.B, c.Scale, c.Shift}
	}
	return []*tensor.Tensor{c.W, c.B}
}

// SetWeights implements Weighted.
func (c *Conv2D) SetWeights(ws []*tensor.Tensor) error {
	shapes := [][]int{{c.OutC, c.InC, c.Kernel, c.Kernel}, {c.OutC}, {c.OutC}, {c.OutC}}
	if !c.BN {
		shapes = shapes[:2]
	}
	if len(ws) != len(shapes) {
		return fmt.Errorf("nn: Conv2D %q expects %d weight tensors, got %d", c.OpName, len(shapes), len(ws))
	}
	for i, w := range ws {
		if !tensor.ShapeEqual(w.Shape(), shapes[i]) {
			return fmt.Errorf("nn: Conv2D %q weight %d shape %v mismatch", c.OpName, i, w.Shape())
		}
	}
	c.W, c.B = ws[0], ws[1]
	if c.BN {
		c.Scale, c.Shift = ws[2], ws[3]
	}
	return nil
}

// Forward implements Op.
func (c *Conv2D) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(c, in) }

// ForwardInto implements Op.
func (c *Conv2D) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("Conv2D", len(in)); err != nil {
		return err
	}
	return c.forward([]*tensor.Tensor{dst}, in)
}

// HKernel implements Spatial.
func (c *Conv2D) HKernel() (k, s, p int) { return c.Kernel, c.Stride, c.Pad }

// padH is the zero padding along height: none with ValidH.
func (c *Conv2D) padH() int {
	if c.ValidH {
		return 0
	}
	return c.Pad
}

// ForwardBatchInto implements BatchForwarder: the batch's pixels are further
// columns of the one GEMM that Forward runs, so a batched forward is bitwise
// equal to the per-query loop. Inputs must share one shape (the dispatcher
// in batch.go falls back to the loop otherwise).
func (c *Conv2D) ForwardBatchInto(dsts, xs []*tensor.Tensor) error {
	return c.forward(dsts, xs)
}

// epi is the layer's epilogue as the GEMM engine takes it, nil for none.
func (c *Conv2D) epi() *epilogue {
	if !c.BN && !c.Relu {
		return nil
	}
	e := &epilogue{relu: c.Relu}
	if c.BN {
		e.scale, e.shift = c.Scale.Data(), c.Shift.Data()
	}
	return e
}

// forward lowers the convolution of every xs[e] into dsts[e] onto the GEMM
// engine as an implicit GEMM: gemmBias multiplies the [OutC][InC*K*K] weight
// rows against the im2col matrix of the inputs, which is never built —
// convCols packs one depth slice of one column block at a time into the
// engine's scratch, straight from the input tensor. Zero padding is
// synthesized while packing (out-of-range pixels become zero panel entries),
// identical bitwise to convolving an explicitly padded copy but without
// staging one. Each output element starts from its bias and accumulates its K
// terms strictly in (ic, ky, kx) order — the accumulation-order contract in
// gemm.go — so outputs are bitwise identical at every parallelism level, batch
// size, and under spatial/channel partitioning, whatever the destination held.
// The layer's epilogue runs on each finished tile.
func (c *Conv2D) forward(dsts, xs []*tensor.Tensor) error {
	if len(xs) == 0 {
		return nil
	}
	if !c.Initialized() {
		return fmt.Errorf("nn: Conv2D %q has no weights", c.OpName)
	}
	for e, x := range xs {
		if x.Rank() != 3 || x.Dim(0) != c.InC {
			return fmt.Errorf("nn: Conv2D %q bad input %v", c.OpName, x.Shape())
		}
		if e > 0 && !x.SameShape(xs[0]) {
			return fmt.Errorf("nn: Conv2D %q batch mixes shapes %v and %v", c.OpName, xs[0].Shape(), x.Shape())
		}
	}
	cc := convCols{h: xs[0].Dim(1), w: xs[0].Dim(2), kernel: c.Kernel, stride: c.Stride, padTop: c.padH(), padL: c.Pad}
	cc.oh = (cc.h+2*cc.padTop-c.Kernel)/c.Stride + 1
	cc.ow = (cc.w+2*cc.padL-c.Kernel)/c.Stride + 1
	if cc.oh <= 0 || cc.ow <= 0 {
		return fmt.Errorf("nn: Conv2D %q empty output for input %v", c.OpName, xs[0].Shape())
	}
	ods := make([][]float32, len(xs))
	cc.xs = make([][]float32, len(xs))
	for e, x := range xs {
		if err := checkDst(c, dsts[e], c.OutC, cc.oh, cc.ow); err != nil {
			return err
		}
		ods[e], cc.xs[e] = dsts[e].Data(), x.Data()
	}
	gemmBias(c.OutC, cc.oh*cc.ow, c.InC*c.Kernel*c.Kernel, c.W.Data(), c.B.Data(), &cc, ods, c.epi())
	return nil
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

// pack writes rows [p0, p0+kc) × columns [j0, j0+w) of batch element e's
// matrix into dst, row p at dst[(p-p0)*ld:], each followed by zeros up to
// column wPad (the lanes a ragged last panel multiplies). It copies and zeroes
// and does nothing else, whatever t's row helpers are.
//
// The rows are visited tap column by tap column — kx, then (ic, ky) stepping
// through the rows p ≡ kx (mod kernel) — so that the divisions that locate a
// row in the kernel and a column in the output happen once per call and once
// per kx, not once per row.
func (cc *convCols) pack(t *gemmTile, e, p0, kc, j0, w, wPad int, dst []float32, ld int) {
	xd := cc.xs[e]
	k, s, ow := cc.kernel, cc.stride, cc.ow
	oy0, oxa0 := j0/ow, j0%ow
	j1 := j0 + w
	for kx := 0; kx < k; kx++ {
		p := p0 + (kx-p0%k+k)%k
		if p >= p0+kc {
			continue
		}
		off := kx - cc.padL
		ox0, ox1 := tapColumns(off, s, cc.w, ow)
		ic, ky := p/(k*k), p/k%k
		for ; p < p0+kc; p += k {
			row := dst[(p-p0)*ld : (p-p0)*ld+wPad]
			if w < wPad {
				clear(row[w:])
			}
			row = row[:w]
			if s == 1 && ow == cc.w {
				// A stride-1 convolution that keeps the width: output column j
				// reads input index j+shift wherever its tap is inside the
				// input, so the stretch is one copy, minus the output rows
				// [.., top) and [b, ..) whose tap row is above or below the
				// input, with the taps left and right of it zeroed afterwards
				// (the copy put the neighbouring row's end there). r is where
				// the output row holding column a starts.
				shift := (ic*cc.h+ky-cc.padTop)*cc.w + off
				top := (cc.padTop - ky) * ow
				a, r := j0, j0-oxa0
				if top > j0 {
					a, r = min(top, j1), top
				}
				b := max(a, min(j1, top+cc.h*ow))
				clear(row[:a-j0])
				clear(row[b-j0:])
				// Only padding taps of the first and last input row fall
				// outside xd.
				if ca, cb := max(a, -shift), min(b, len(xd)-shift); ca < cb {
					copy(row[ca-j0:cb-j0], xd[ca+shift:cb+shift])
				}
				if ox0 > 0 {
					for q := r; q < b; q += ow {
						if lo, hi := max(q, a), min(q+ox0, b); lo < hi {
							clear(row[lo-j0 : hi-j0])
						}
					}
				}
				if ox1 < ow {
					for q := r + ox1; q < b; q += ow {
						if lo, hi := max(q, a), min(q+ow-ox1, b); lo < hi {
							clear(row[lo-j0 : hi-j0])
						}
					}
				}
			} else {
				// Otherwise the stretch is cut at output-row ends; oxa is
				// where the current piece starts in its output row, y the
				// input row its taps read and src the index of the tap of that
				// row's column 0.
				oxa, y := oxa0, oy0*s+ky-cc.padTop
				src := (ic*cc.h+y)*cc.w + off
				for rest := row; len(rest) > 0; {
					n := min(ow-oxa, len(rest))
					seg := rest[:n]
					rest = rest[n:]
					lo, hi := max(ox0, oxa), min(ox1, oxa+n)
					if y < 0 || y >= cc.h || lo >= hi {
						clear(seg)
					} else {
						clear(seg[:lo-oxa])
						t.copyRow(seg[lo-oxa:hi-oxa], xd[src+lo*s:src+(hi-1)*s+1], s)
						clear(seg[hi-oxa:])
					}
					oxa, y, src = 0, y+s, src+s*cc.w
				}
			}
			if ky++; ky == k {
				ky, ic = 0, ic+1
			}
		}
	}
}

// tapColumns returns the output columns [ox0, ox1) of a row of ow whose tap,
// off input columns from the output column's own, lands inside an input row
// of width w: 0 <= ox*stride+off < w. The rest read padding.
func tapColumns(off, stride, w, ow int) (ox0, ox1 int) {
	if off < 0 {
		ox0 = (-off + stride - 1) / stride
	}
	if last := w - 1 - off; last >= 0 {
		ox1 = min(last/stride+1, ow)
	}
	return ox0, ox1
}

// OutChannels implements ChannelSliceable.
func (c *Conv2D) OutChannels() int { return c.OutC }

// SliceChannels implements ChannelSliceable: the returned convolution keeps
// filters [start, end) and the matching rows of the epilogue, shared with c,
// and computes the corresponding output channels.
func (c *Conv2D) SliceChannels(start, end int) (Op, error) {
	if start < 0 || end > c.OutC || start >= end {
		return nil, fmt.Errorf("nn: Conv2D %q channel slice [%d,%d) out of range %d", c.OpName, start, end, c.OutC)
	}
	out := NewConv2D(fmt.Sprintf("%s[%d:%d]", c.OpName, start, end), c.InC, end-start, c.Kernel, c.Stride, c.Pad)
	out.BN, out.Relu, out.ValidH = c.BN, c.Relu, c.ValidH
	// The filters of a channel range are consecutive rows of W, and its
	// bias, scale and shift consecutive entries: the slice shares them
	// (weights are never written after Init). A tensor not there yet stays
	// nil.
	var err error
	rows := func(t *tensor.Tensor) *tensor.Tensor {
		if t == nil || err != nil {
			return nil
		}
		var r *tensor.Tensor
		r, err = t.Rows(start, end)
		return r
	}
	out.W, out.B, out.Scale, out.Shift = rows(c.W), rows(c.B), rows(c.Scale), rows(c.Shift)
	if err != nil {
		return nil, err
	}
	return out, nil
}
