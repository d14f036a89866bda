package nn

import (
	"math"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// TestKernelAsmMatchesReference proves the dispatched micro-kernels (AVX
// assembly where available, the Go references otherwise) agree bitwise with
// the pure-Go contract statements in gemm.go, across ragged k values and
// denormal-heavy inputs. On platforms without the assembly the dispatch IS
// the reference and the test is trivially green — it still pins that the
// wrappers wire through correctly.
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

	t.Run("mulAddPanel4x8", func(t *testing.T) {
		for _, k := range []int{1, 2, 7, 8, 9, 64, 100, 511, 512, 513} {
			const bstride = 8
			a0, a1, a2, a3 := fill(k), fill(k), fill(k), fill(k)
			b := fill(k * bstride)
			cRef := [4][]float32{fill(8), fill(8), fill(8), fill(8)}
			var cGot [4][]float32
			for r := range cGot {
				cGot[r] = append([]float32(nil), cRef[r]...)
			}
			mulAddPanel4x8Go(k, a0, a1, a2, a3, b, bstride, cRef[0], cRef[1], cRef[2], cRef[3])
			mulAddPanel4x8(k, a0, a1, a2, a3, b, bstride, cGot[0], cGot[1], cGot[2], cGot[3])
			for r := range cRef {
				for j := range cRef[r] {
					if math.Float32bits(cRef[r][j]) != math.Float32bits(cGot[r][j]) {
						t.Fatalf("k=%d row=%d col=%d: dispatched kernel %v != reference %v",
							k, r, j, cGot[r][j], cRef[r][j])
					}
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
// zero. epi, if non-nil, then runs over each finished row.
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
		epi.apply(oc, od[oc*oh*ow:(oc+1)*oh*ow])
	}
	return out
}

// TestBlockedGEMMMatchesStrictKReference pins the blocked, packed loop nest
// to the scalar contract bit for bit — NaN payloads and Inf·0 included — on
// shapes that leave ragged tiles on every side (rows not a multiple of 4,
// columns not a multiple of 8 or fewer than 8, depth and columns straddling
// a block, enough rows to split bands into groups), at stride 1 and 2, with
// and without height padding, single and batched, plain and fused, through
// the dispatched kernel and the Go one, at several parallelism levels.
func TestBlockedGEMMMatchesStrictKReference(t *testing.T) {
	shapes := []struct {
		name                            string
		inC, outC, k, stride, pad, h, w int
	}{
		{"n4-m1", 2, 1, 3, 1, 0, 4, 4},
		{"n9-m5", 3, 5, 3, 1, 1, 3, 3},
		{"n49-m6", 4, 6, 3, 1, 1, 7, 7},
		{"k270-n324-m7", 30, 7, 3, 1, 1, 18, 18}, // depth past gemmKc, columns past gemmNc
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
	defer func(avx bool) { useAVXKernels = avx }(useAVXKernels)
	for _, sh := range shapes {
		for name, special := range specials {
			rng := rand.New(rand.NewSource(int64(len(sh.name) + len(name))))
			c := NewConv2D("c", sh.inC, sh.outC, sh.k, sh.stride, sh.pad)
			c.Init(rng)
			bn := NewBatchNorm("bn", sh.outC)
			bn.Init(rng)
			fc, err := NewFusedConv2D(c, bn, true)
			if err != nil {
				t.Fatal(err)
			}
			xs := batchInputs(rng, tensor.New(sh.inC, sh.h, sh.w), 3)
			special(c, xs, rng)
			for _, epi := range []*epilogue{nil, fc.epi()} {
				for _, padH := range []bool{true, false} {
					want := make([]*tensor.Tensor, len(xs))
					for e, x := range xs {
						want[e] = strictKConv(c, x, padH, epi)
					}
					for _, avx := range []bool{useAVXKernels, false} {
						useAVXKernels = avx
						for _, p := range []int{1, 2, 3, 8} {
							for _, batch := range []int{1, 3} {
								restore := par.SetParallelism(p)
								got, err := c.forward(xs[:batch], padH, epi)
								restore()
								if err != nil {
									t.Fatal(err)
								}
								for e := range got {
									if !tensor.ShapeEqual(got[e].Shape(), want[e].Shape()) {
										t.Fatalf("%s %s: shape %v, want %v", sh.name, name, got[e].Shape(), want[e].Shape())
									}
									for i, v := range want[e].Data() {
										if g := got[e].Data()[i]; math.Float32bits(g) != math.Float32bits(v) {
											t.Fatalf("%s %s padH=%v fused=%v avx=%v p=%d batch=%d element %d: out[%d] = %x, strict-k reference %x",
												sh.name, name, padH, epi != nil, avx, p, batch, e, i, math.Float32bits(g), math.Float32bits(v))
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
}
