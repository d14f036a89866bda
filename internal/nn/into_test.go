package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// intoCase is one operator and a batch of three input lists for it.
type intoCase struct {
	name string
	op   Op
	ins  [][]*tensor.Tensor
}

// intoCases covers every operator kind, fused layers, channel slices and
// convolutions without height padding (ValidH), with sizes that leave ragged tiles, boundary windows and a band
// tail.
func intoCases(t *testing.T) []intoCase {
	t.Helper()
	rng := rand.New(rand.NewSource(41))
	mk := func(op Op) Op {
		op.Init(rng)
		return op
	}
	slice := func(op Op, lo, hi int) Op {
		s, err := op.(ChannelSliceable).SliceChannels(lo, hi)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	conv := mk(NewConv2D("c", 5, 13, 3, 1, 1)).(*Conv2D)
	fconv := fuseConv(t, mk(NewConv2D("fc", 5, 13, 3, 2, 1)).(*Conv2D), mk(NewBatchNorm("fbn", 13)).(*BatchNorm), true)
	dense := mk(NewDense("d", 251, 127)).(*Dense)
	dw := mk(NewDepthwiseConv2D("dw", 13, 3, 1, 1))
	ops := []struct {
		op     Op
		shapes [][]int
	}{
		{conv, [][]int{{5, 17, 19}}},
		{mk(NewConv2D("cs", 7, 11, 5, 2, 2)), [][]int{{7, 23, 23}}},
		{mk(NewConv2D("c1", 3, 70, 1, 1, 0)), [][]int{{3, 9, 9}}},
		{slice(conv, 3, 10), [][]int{{5, 17, 19}}},
		{fconv, [][]int{{5, 17, 19}}},
		{slice(fconv, 0, 5), [][]int{{5, 17, 19}}},
		{dw, [][]int{{13, 17, 17}}},
		{slice(dw, 2, 9), [][]int{{13, 17, 17}}},
		{mk(NewDepthwiseConv2D("dw5", 4, 5, 2, 2)), [][]int{{4, 15, 16}}},
		{dense, [][]int{{251}}},
		{slice(dense, 5, 66), [][]int{{251}}},
		{fuseDense(mk(NewDense("fd", 40, 30)).(*Dense)), [][]int{{40}}},
		{mk(NewBatchNorm("bn", 6)), [][]int{{6, 7, 9}}},
		{NewReLU("relu"), [][]int{{6, 7, 9}}},
		{NewReLU("relu1"), [][]int{{37}}},
		{NewAdd("add"), [][]int{{6, 7, 9}, {6, 7, 9}}},
		{NewSoftmax("sm"), [][]int{{4, 10}}},
		{NewMaxPool2D("mp", 3, 2, 1), [][]int{{11, 19, 19}}},
		{NewAvgPool2D("ap", 2, 2), [][]int{{11, 18, 18}}},
		{NewGlobalAvgPool("gap"), [][]int{{13, 9, 9}}},
		{mk(NewLSTM("lstm", 37, 53)), [][]int{{11, 37}}},
		{NewFlatten("flat"), [][]int{{3, 4, 5}}},
		{NewTakeLast("last"), [][]int{{6, 21}}},
		{NewConcat("cat"), [][]int{{2, 7, 9}, {5, 7, 9}, {1, 7, 9}}},
		{validH(conv), [][]int{{5, 17, 19}}},
		{validH(fconv), [][]int{{5, 17, 19}}},
		{&RowWindow{OpName: "win", In: []int{3, 6, 9}, H: 10, SrcLo: 1, Lo: 2, Hi: 7}, [][]int{{3, 6, 9}}},
		{&RowWindow{OpName: "winf", In: []int{3, 6, 9}, H: 6, SrcLo: 2, Lo: 0, Hi: 4, Fill: float32(math.Inf(-1))}, [][]int{{3, 6, 9}}},
	}
	var cases []intoCase
	for _, o := range ops {
		ic := intoCase{name: fmt.Sprintf("%s/%s", o.op.Kind(), o.op.Name()), op: o.op, ins: make([][]*tensor.Tensor, 3)}
		for e := range ic.ins {
			for _, shape := range o.shapes {
				ic.ins[e] = append(ic.ins[e], tensor.Rand(rng, 1, shape...))
			}
		}
		cases = append(cases, ic)
	}
	return cases
}

// poisoned returns a tensor shaped like t whose every element is a signalling
// NaN: what an activation arena may hold when an operator is handed a piece
// of it. A forward that adds into its destination, or leaves an element of it
// alone, carries the NaN into the output.
func poisoned(t *tensor.Tensor) *tensor.Tensor {
	p := tensor.New(t.Shape()...)
	for i := range p.Data() {
		p.Data()[i] = math.Float32frombits(0x7fa00001 + uint32(i)&0xffff)
	}
	return p
}

// TestForwardIntoOverwritesDestination: for every operator, its copy without
// height padding (ValidH) and each of their entry points — ForwardInto, the
// batched dispatcher — a
// destination full of signalling NaNs comes out bit-equal to the tensor the
// allocating spelling returns, through every kernel implementation and at one
// worker and several. That is the contract a forward in uninitialized arena
// memory rests on.
func TestForwardIntoOverwritesDestination(t *testing.T) {
	cases := intoCases(t)
	defer func(tl *gemmTile) { tile = tl }(tile)
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		tile = tl
		for _, p := range []int{1, 3} {
			restore := par.SetParallelism(p)
			defer restore()
			for _, ic := range cases {
				in := ic.ins[0]
				want, err := ic.op.Forward(in...)
				if err != nil {
					t.Fatalf("%s: %v", ic.name, err)
				}
				dst := poisoned(want)
				if err := ic.op.ForwardInto(dst, in...); err != nil {
					t.Fatalf("%s: ForwardInto: %v", ic.name, err)
				}
				sameBits(t, ic.name+" ForwardInto", dst.Data(), want.Data())

				if v := validH(ic.op); v != ic.op {
					want, err := v.Forward(in...)
					if err != nil {
						t.Fatalf("%s: %v", ic.name, err)
					}
					dst := poisoned(want)
					if err := v.ForwardInto(dst, in...); err != nil {
						t.Fatalf("%s: ValidH ForwardInto: %v", ic.name, err)
					}
					sameBits(t, ic.name+" ValidH ForwardInto", dst.Data(), want.Data())
				}

				dsts := make([]*tensor.Tensor, len(ic.ins))
				wants := make([]*tensor.Tensor, len(ic.ins))
				for e, in := range ic.ins {
					if wants[e], err = ic.op.Forward(in...); err != nil {
						t.Fatalf("%s: %v", ic.name, err)
					}
					dsts[e] = poisoned(wants[e])
				}
				if err := ForwardBatchInto(ic.op, dsts, ic.ins); err != nil {
					t.Fatalf("%s: ForwardBatchInto: %v", ic.name, err)
				}
				for e := range dsts {
					sameBits(t, fmt.Sprintf("%s ForwardBatchInto[%d]", ic.name, e), dsts[e].Data(), wants[e].Data())
				}
			}
		}
	})
}

// TestForwardIntoRejectsWrongDestination: a destination of another shape is
// an error from every operator, never a partial write or a panic.
func TestForwardIntoRejectsWrongDestination(t *testing.T) {
	for _, ic := range intoCases(t) {
		want, err := ic.op.Forward(ic.ins[0]...)
		if err != nil {
			t.Fatal(err)
		}
		for _, dst := range []*tensor.Tensor{tensor.New(want.Len() + 1), tensor.New(append(want.Shape(), 1)...)} {
			if err := ic.op.ForwardInto(dst, ic.ins[0]...); err == nil {
				t.Errorf("%s: ForwardInto accepted a %v destination for a %v output", ic.name, dst.Shape(), want.Shape())
			}
			if v := validH(ic.op); v != ic.op {
				if err := v.ForwardInto(dst, ic.ins[0]...); err == nil {
					t.Errorf("%s: ValidH ForwardInto accepted a %v destination", ic.name, dst.Shape())
				}
			}
			if err := ForwardBatchInto(ic.op, []*tensor.Tensor{dst}, ic.ins[:1]); err == nil {
				t.Errorf("%s: ForwardBatchInto accepted a %v destination", ic.name, dst.Shape())
			}
		}
	}
}

// TestAliasSharesTheInput: an Aliaser's view is its Forward, element for
// element, on the input's own storage.
func TestAliasSharesTheInput(t *testing.T) {
	n := 0
	for _, ic := range intoCases(t) {
		al, ok := ic.op.(Aliaser)
		if !ok {
			continue
		}
		n++
		x := ic.ins[0][0]
		want, err := ic.op.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		view, err := al.Alias(x)
		if err != nil {
			t.Fatal(err)
		}
		if !tensor.Equal(view, want) {
			t.Errorf("%s: view differs from Forward", ic.name)
		}
		last := len(view.Data()) - 1
		if &view.Data()[last] != &x.Data()[len(x.Data())-1] {
			t.Errorf("%s: view does not end on the input's last element", ic.name)
		}
		if &want.Data()[last] == &x.Data()[len(x.Data())-1] {
			t.Errorf("%s: Forward returned the input's storage", ic.name)
		}
	}
	if n != 2 {
		t.Fatalf("%d aliasing operators among the cases, want Flatten and TakeLast", n)
	}
}

// TestSliceChannelsSharesWeights: a channel slice holds rows of its parent's
// weight tensors, not copies — slicing a layer per deployment costs no pass
// over its matrix.
func TestSliceChannelsSharesWeights(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, op := range []Weighted{NewDense("d", 64, 20), NewConv2D("c", 4, 20, 3, 1, 1), NewDepthwiseConv2D("dw", 20, 3, 1, 1), NewBatchNorm("bn", 20)} {
		op.Init(rng)
		s, err := op.(ChannelSliceable).SliceChannels(5, 15)
		if err != nil {
			t.Fatal(err)
		}
		for i, w := range s.(Weighted).Weights() {
			full := op.Weights()[i]
			per := full.Len() / 20
			if &w.Data()[0] != &full.Data()[5*per] || w.Len() != 10*per {
				t.Errorf("%s: weight %d of the slice is not rows 5..15 of the parent's", op.Name(), i)
			}
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := op.(ChannelSliceable).SliceChannels(5, 15); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 12 {
			t.Errorf("%s: SliceChannels makes %.0f allocations", op.Name(), avg)
		}
	}
}
