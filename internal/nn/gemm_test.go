package nn

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// TestKernelAsmMatchesReference proves every micro-kernel the CPU can run
// (gemmTiles: the AVX-512 and AVX assembly where available, the Go reference
// at each geometry) agrees bitwise with the scalar statement of the contract,
// across ragged k values, strided operands and denormal-heavy inputs, and
// that the row-dot dispatch agrees with its Go reference.
func TestKernelAsmMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	fill := func(n int) []float32 {
		s := make([]float32, n)
		for i := range s {
			v := float32(rng.NormFloat64())
			switch rng.Intn(8) {
			case 0:
				v = 0
			case 1:
				v *= 1e-38 // subnormal territory
			case 2:
				v *= 1e30
			}
			s[i] = v
		}
		return s
	}

	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		for _, k := range []int{1, 2, 7, 8, 9, 64, 100, 511, 512, 513} {
			// Strides wider than the tile, as block passes them: the
			// kernel must touch only its mr×nr window of c.
			lda, ldb, ldc := k+3, tl.nr+16, tl.nr+5
			a, b := fill(tl.mr*lda), fill(k*ldb)
			want := fill(tl.mr * ldc)
			got := append([]float32(nil), want...)
			for r := 0; r < tl.mr; r++ {
				for j := 0; j < tl.nr; j++ {
					s := want[r*ldc+j]
					for p := 0; p < k; p++ {
						s = float32(s + float32(a[r*lda+p]*b[p*ldb+j]))
					}
					want[r*ldc+j] = s
				}
			}
			tl.mulAdd(k, a, lda, b, ldb, got, ldc, tileEnds{})
			for i := range want {
				if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
					t.Fatalf("k=%d row=%d col=%d: kernel %v != reference %v",
						k, i/ldc, i%ldc, got[i], want[i])
				}
			}
		}
	})

	t.Run("laneDotAcc4", func(t *testing.T) {
		for _, k8 := range []int{8, 16, 64, 504, 512, 1024} {
			w := fill(4 * k8)
			x := fill(k8)
			ref := fill(4)
			got := append([]float32(nil), ref...)
			laneDotAcc4Go(k8, w, w[k8:], w[2*k8:], w[3*k8:], x, ref)
			laneDotAcc4(k8, w, w[k8:], w[2*k8:], w[3*k8:], x, got)
			for r := range ref {
				if math.Float32bits(ref[r]) != math.Float32bits(got[r]) {
					t.Fatalf("k8=%d row=%d: dispatched kernel %v != reference %v", k8, r, got[r], ref[r])
				}
			}
		}
	})
}

// strictKConv is the scalar statement of the matrix-panel contract for a
// convolution: each output element starts at its bias and adds its taps in
// (ic, ky, kx) order, every product and every sum rounded to float32 on its
// own (the conversions forbid fusing), a padding tap multiplying an explicit
// zero. epi, if non-nil, then runs over each finished row (epilogueRef).
func strictKConv(c *Conv2D, x *tensor.Tensor, padH bool, epi *epilogue) *tensor.Tensor {
	h, w := x.Dim(1), x.Dim(2)
	padTop := 0
	if padH {
		padTop = c.Pad
	}
	oh := (h+2*padTop-c.Kernel)/c.Stride + 1
	ow := (w+2*c.Pad-c.Kernel)/c.Stride + 1
	out := tensor.New(c.OutC, oh, ow)
	xd, wd, bd, od := x.Data(), c.W.Data(), c.B.Data(), out.Data()
	for oc := 0; oc < c.OutC; oc++ {
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				s := bd[oc]
				for ic := 0; ic < c.InC; ic++ {
					for ky := 0; ky < c.Kernel; ky++ {
						for kx := 0; kx < c.Kernel; kx++ {
							y, xx := oy*c.Stride+ky-padTop, ox*c.Stride+kx-c.Pad
							var v float32
							if y >= 0 && y < h && xx >= 0 && xx < w {
								v = xd[(ic*h+y)*w+xx]
							}
							s = float32(s + float32(wd[((oc*c.InC+ic)*c.Kernel+ky)*c.Kernel+kx]*v))
						}
					}
				}
				od[(oc*oh+oy)*ow+ox] = s
			}
		}
		if epi != nil {
			epilogueRef(od[oc*oh*ow:(oc+1)*oh*ow], epi, oc)
		}
	}
	return out
}

// epilogueRef is the scalar statement of the epilogue over one output
// channel: a product assigned to a float32 variable (an assignment rounds, so
// no compiler may contract it with the add that follows), the shift added,
// then the clamp as BatchNorm and ReLU state it.
func epilogueRef(row []float32, epi *epilogue, ch int) {
	for i, v := range row {
		if epi.scale != nil {
			var prod float32 = v * epi.scale[ch]
			v = prod + epi.shift[ch]
		}
		if epi.relu && v < 0 {
			v = 0
		}
		row[i] = v
	}
}

// asmTileNames are the assembly kernels some CPU can run; forEachTile skips by
// name the ones this CPU cannot.
var asmTileNames = []string{"avx512-8x32", "avx-4x16"}

// forEachTile runs body once per implementation in gemmTiles(), as a subtest
// named after it.
func forEachTile(t *testing.T, body func(t *testing.T, tl *gemmTile)) {
	have := map[string]bool{}
	for _, tl := range gemmTiles() {
		have[tl.name] = true
		t.Run(tl.name, func(t *testing.T) { body(t, tl) })
	}
	for _, name := range asmTileNames {
		if !have[name] {
			t.Run(name, func(t *testing.T) { t.Skipf("this CPU, OS or GOARCH does not offer the %s kernel", name) })
		}
	}
}

// TestBlockedGEMMMatchesStrictKReference pins the blocked, packed loop nest
// to the scalar contract bit for bit — NaN payloads and Inf·0 included — on
// shapes that leave ragged tiles on every side (fewer rows than a band, rows
// not a multiple of it, columns fewer than a panel, just past one or two
// (33, 49, 65) or not a multiple, depth and columns straddling a block, a
// depth that splits into unequal slices, enough rows to split bands into
// groups), at stride 1 and 2, with and without height padding, single and
// batched, plain and fused, through every implementation the CPU offers, at
// several parallelism levels.
func TestBlockedGEMMMatchesStrictKReference(t *testing.T) {
	shapes := []struct {
		name                            string
		inC, outC, k, stride, pad, h, w int
	}{
		{"n4-m1", 2, 1, 3, 1, 0, 4, 4},
		{"n9-m5", 3, 5, 3, 1, 1, 3, 3},
		{"n49-m6", 4, 6, 3, 1, 1, 7, 7},
		{"k387-n33-m9", 43, 9, 3, 1, 1, 3, 11}, // depth slices of 194 and 193
		{"n65-m17", 3, 17, 3, 1, 1, 5, 13},
		{"k270-n324-m7", 30, 7, 3, 1, 1, 18, 18}, // columns past gemmNc
		{"k257-n272-m4", 257, 4, 1, 1, 0, 16, 17},
		{"stride2-m9", 5, 9, 3, 2, 1, 19, 17},
		{"7x7s2-m10", 3, 10, 7, 2, 3, 33, 29},
		{"5x5-pad3-m3", 2, 3, 5, 1, 3, 6, 5}, // padding wider than half the kernel
		{"1x1s2-m8", 6, 8, 1, 2, 0, 9, 9},
		{"band-groups-m261", 2, 261, 1, 1, 0, 5, 5},
		{"wide-rows-n1500", 1, 2, 3, 1, 1, 5, 300}, // a column block inside one padded output row
		{"wide-7x7-n2480", 1, 2, 7, 1, 3, 8, 310},
	}
	const payload = 0x7fc12345
	specials := map[string]func(c *Conv2D, xs []*tensor.Tensor, rng *rand.Rand){
		"finite": func(*Conv2D, []*tensor.Tensor, *rand.Rand) {},
		// One payload throughout, so no sum ever has to choose between two.
		"nan-input": func(_ *Conv2D, xs []*tensor.Tensor, rng *rand.Rand) {
			for _, x := range xs {
				for i := 0; i < 3; i++ {
					x.Data()[rng.Intn(x.Len())] = math.Float32frombits(payload)
				}
			}
		},
		// Inf weights turn padding zeros into the default NaN.
		"inf-weight": func(c *Conv2D, _ []*tensor.Tensor, rng *rand.Rand) {
			for i := 0; i < 3; i++ {
				c.W.Data()[rng.Intn(c.W.Len())] = float32(math.Inf(1 - 2*(i%2)))
			}
		},
	}
	// The scalar reference is the slow part: compute it once, then run every
	// implementation against it.
	type refCase struct {
		name string
		c    *Conv2D
		xs   []*tensor.Tensor
		want []*tensor.Tensor
	}
	var cases []refCase
	for _, sh := range shapes {
		for name, special := range specials {
			rng := rand.New(rand.NewSource(int64(len(sh.name) + len(name))))
			c := NewConv2D("c", sh.inC, sh.outC, sh.k, sh.stride, sh.pad)
			c.Init(rng)
			bn := NewBatchNorm("bn", sh.outC)
			bn.Init(rng)
			fc := fuseConv(t, c, bn, true)
			xs := batchInputs(rng, tensor.New(sh.inC, sh.h, sh.w), 3)
			special(c, xs, rng)
			for _, cv := range []*Conv2D{c, fc} {
				for _, padH := range []bool{true, false} {
					rc := refCase{name: fmt.Sprintf("%s %s padH=%v fused=%v", sh.name, name, padH, cv == fc),
						c: cv, xs: xs}
					if !padH {
						rc.c = validH(cv).(*Conv2D)
					}
					for _, x := range xs {
						rc.want = append(rc.want, strictKConv(c, x, padH, cv.epi()))
					}
					cases = append(cases, rc)
				}
			}
		}
	}
	defer func(tl *gemmTile) { tile = tl }(tile)
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		tile = tl
		for _, rc := range cases {
			for _, p := range []int{1, 2, 3, 8} {
				for _, batch := range []int{1, 3} {
					got := make([]*tensor.Tensor, batch)
					for e := range got {
						got[e] = tensor.New(rc.want[e].Shape()...)
					}
					restore := par.SetParallelism(p)
					err := rc.c.forward(got, rc.xs[:batch])
					restore()
					if err != nil {
						t.Fatal(err)
					}
					for e := range got {
						want := rc.want[e]
						if !tensor.ShapeEqual(got[e].Shape(), want.Shape()) {
							t.Fatalf("%s: shape %v, want %v", rc.name, got[e].Shape(), want.Shape())
						}
						for i, v := range want.Data() {
							if g := got[e].Data()[i]; math.Float32bits(g) != math.Float32bits(v) {
								t.Fatalf("%s p=%d batch=%d element %d: out[%d] = %x, strict-k reference %x",
									rc.name, p, batch, e, i, math.Float32bits(g), math.Float32bits(v))
							}
						}
					}
				}
			}
		}
	})
}

// TestSelectedKernel reports the implementation start-up selected. Under
// `make procs`, which links each level into kernelCap in turn, it is skipped
// when the CPU does not offer that level, and make then skips the level's run
// instead of repeating a lower one.
func TestSelectedKernel(t *testing.T) {
	t.Logf("selected kernel %s (kernelCap %q)", KernelName(), kernelCap)
	if kernelCap != "" && !strings.HasPrefix(KernelName(), kernelCap+"-") {
		t.Skipf("this CPU, OS or GOARCH does not offer an %s kernel", kernelCap)
	}
}
