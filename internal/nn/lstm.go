package nn

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// LSTM is a single unidirectional LSTM layer unrolled over a [T, InSize]
// input sequence, producing the [T, Hidden] sequence of hidden states.
// Gate order in the stacked weight matrices is (input, forget, cell, output).
//
// Recurrent layers have no local spatial response — each output step depends
// on the whole prefix — so LSTM deliberately does not implement Spatial or
// ChannelSliceable: Gillis can place an LSTM stack across functions (serial
// rounds) but cannot tensor-partition it, exactly as in the paper (§V-B).
type LSTM struct {
	OpName string
	InSize int
	Hidden int

	// Wx has shape [4*Hidden, InSize]; Wh has shape [4*Hidden, Hidden];
	// B has shape [4*Hidden].
	Wx *tensor.Tensor
	Wh *tensor.Tensor
	B  *tensor.Tensor
}

var _ Weighted = (*LSTM)(nil)

// NewLSTM constructs an uninitialized LSTM layer.
func NewLSTM(name string, inSize, hidden int) *LSTM {
	return &LSTM{OpName: name, InSize: inSize, Hidden: hidden}
}

// Name implements Op.
func (l *LSTM) Name() string { return l.OpName }

// Kind implements Op.
func (l *LSTM) Kind() Kind { return KindLSTM }

// OutShape implements Op.
func (l *LSTM) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("LSTM", len(in)); err != nil {
		return nil, err
	}
	s := in[0]
	if err := checkRank("LSTM", s, 2); err != nil {
		return nil, err
	}
	if s[1] != l.InSize {
		return nil, fmt.Errorf("nn: LSTM %q expects input size %d, got %d", l.OpName, l.InSize, s[1])
	}
	return []int{s[0], l.Hidden}, nil
}

// FLOPs implements Op.
func (l *LSTM) FLOPs(in ...[]int) int64 {
	s, err := l.OutShape(in...)
	if err != nil {
		return 0
	}
	t := int64(s[0])
	h := int64(l.Hidden)
	x := int64(l.InSize)
	// Per step: two matmuls (4h×x and 4h×h), plus gate nonlinearities and
	// element-wise state updates (~10 ops per hidden unit).
	return t * (2*4*h*x + 2*4*h*h + 10*h)
}

// ParamCount implements Op.
func (l *LSTM) ParamCount() int64 {
	h := int64(l.Hidden)
	return 4*h*int64(l.InSize) + 4*h*h + 4*h
}

// Init implements Op.
func (l *LSTM) Init(rng *rand.Rand) {
	sx := float32(math.Sqrt(1 / float64(l.InSize)))
	sh := float32(math.Sqrt(1 / float64(l.Hidden)))
	l.Wx = tensor.Rand(rng, sx, 4*l.Hidden, l.InSize)
	l.Wh = tensor.Rand(rng, sh, 4*l.Hidden, l.Hidden)
	l.B = tensor.Rand(rng, 0.01, 4*l.Hidden)
}

// Initialized implements Op.
func (l *LSTM) Initialized() bool { return l.Wx != nil && l.Wh != nil && l.B != nil }

// Weights implements Weighted.
func (l *LSTM) Weights() []*tensor.Tensor { return []*tensor.Tensor{l.Wx, l.Wh, l.B} }

// SetWeights implements Weighted.
func (l *LSTM) SetWeights(ws []*tensor.Tensor) error {
	if len(ws) != 3 {
		return fmt.Errorf("nn: LSTM %q expects 3 weight tensors, got %d", l.OpName, len(ws))
	}
	if !tensor.ShapeEqual(ws[0].Shape(), []int{4 * l.Hidden, l.InSize}) ||
		!tensor.ShapeEqual(ws[1].Shape(), []int{4 * l.Hidden, l.Hidden}) ||
		!tensor.ShapeEqual(ws[2].Shape(), []int{4 * l.Hidden}) {
		return fmt.Errorf("nn: LSTM %q weight shape mismatch", l.OpName)
	}
	l.Wx, l.Wh, l.B = ws[0], ws[1], ws[2]
	return nil
}

// Forward implements Op, starting from zero initial hidden and cell states.
func (l *LSTM) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(l, in) }

// ForwardInto implements Op: the one-element call of ForwardBatchInto.
func (l *LSTM) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("LSTM", len(in)); err != nil {
		return err
	}
	return l.ForwardBatchInto([]*tensor.Tensor{dst}, in)
}

// ForwardBatchInto implements BatchForwarder. The timestep recurrence is
// inherently serial, but within a step the 4*Hidden gate rows are independent
// row-dots and the Hidden state updates are element-wise, so the parallel
// index space is batch×bands: every (element, band) pair runs against that
// element's own state slab, and parallelizing over those rows splits no
// reduction. Gate rows run in bands of four on the row-dot micro-kernel
// (gemm.go): per row, bias + laneDot over x_t, then + laneDot over h_{t-1} —
// a fixed schedule independent of banding, batch size and parallelism, so
// outputs are bitwise identical to the per-query loop at every parallelism
// level. Inputs must share one shape (the dispatcher in batch.go falls back
// to the loop otherwise).
func (l *LSTM) ForwardBatchInto(dsts, xs []*tensor.Tensor) error {
	if len(xs) == 0 {
		return nil
	}
	if !l.Initialized() {
		return fmt.Errorf("nn: LSTM %q has no weights", l.OpName)
	}
	for e, x := range xs {
		if x.Rank() != 2 || x.Dim(1) != l.InSize {
			return fmt.Errorf("nn: LSTM %q bad input %v", l.OpName, x.Shape())
		}
		if x.Dim(0) != xs[0].Dim(0) {
			return fmt.Errorf("nn: LSTM %q batch mixes sequence lengths %d and %d", l.OpName, xs[0].Dim(0), x.Dim(0))
		}
		if err := checkDst(l, dsts[e], x.Dim(0), l.Hidden); err != nil {
			return err
		}
	}
	batch := len(xs)
	steps := xs[0].Dim(0)
	h := l.Hidden
	wx, wh, bias := l.Wx.Data(), l.Wh.Data(), l.B.Data()

	xds := make([][]float32, batch)
	ods := make([][]float32, batch)
	for e, x := range xs {
		xds[e] = x.Data()
		ods[e] = dsts[e].Data()
	}
	// All per-step temporaries come from the scratch arena: one slab per
	// kind, sliced per element; each element's state region is touched only
	// through its own (element, band) indices.
	hBuf, cBuf, gBuf := par.GetF32(batch*h), par.GetF32(batch*h), par.GetF32(batch*4*h)
	defer par.PutF32(hBuf)
	defer par.PutF32(cBuf)
	defer par.PutF32(gBuf)
	hAll, cAll, gAll := *hBuf, *cBuf, *gBuf
	clear(hAll)
	clear(cAll)
	// Both bodies are hoisted out of the timestep loop so each forward
	// allocates the closures once, not per step; t is advanced between steps
	// (serially, after For returns, so no goroutine observes a partial
	// update).
	var t int
	gateRows := func(lo, hi int) {
		forRuns(lo, hi, h, func(e, lo, hi int) {
			xt := xds[e][t*l.InSize : (t+1)*l.InSize]
			hState := hAll[e*h : (e+1)*h]
			gates := gAll[e*4*h : (e+1)*4*h]
			for band := lo; band < hi; band++ {
				g := band * 4
				copy(gates[g:g+4], bias[g:g+4])
				gemvBand4(l.InSize, wx[g*l.InSize:], l.InSize, xt, gates[g:g+4])
				gemvBand4(h, wh[g*h:], h, hState, gates[g:g+4])
			}
		})
	}
	stateUpdate := func(lo, hi int) {
		forRuns(lo, hi, h, func(e, lo, hi int) {
			hState := hAll[e*h : (e+1)*h]
			cState := cAll[e*h : (e+1)*h]
			gates := gAll[e*4*h : (e+1)*4*h]
			for j := lo; j < hi; j++ {
				ig := sigmoid(gates[j])
				fg := sigmoid(gates[h+j])
				gg := float32(math.Tanh(float64(gates[2*h+j])))
				og := sigmoid(gates[3*h+j])
				cState[j] = float32(fg*cState[j]) + float32(ig*gg)
				hState[j] = og * float32(math.Tanh(float64(cState[j])))
			}
		})
	}
	for t = 0; t < steps; t++ {
		par.For(batch*h, 8*(l.InSize+h), gateRows)
		par.For(batch*h, 64, stateUpdate)
		for e := 0; e < batch; e++ {
			copy(ods[e][t*h:(t+1)*h], hAll[e*h:(e+1)*h])
		}
	}
	return nil
}

func sigmoid(v float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(v))))
}
