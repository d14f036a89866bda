package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// Bit patterns the row helpers must carry through untouched or treat exactly
// like the scalar statements do: quiet and signalling NaNs of both signs,
// both zeros, the smallest denormals, both infinities.
var specialBits = []uint32{
	0x7fc00000, 0xffc00000, 0x7fc12345, 0xffc12345, 0x7f812345, 0xff812345, // NaN, -NaN, payloads, signalling
	0x00000000, 0x80000000, 0x00000001, 0x80000001, 0x807fffff, // +0, -0, ±denormal
	0x7f800000, 0xff800000, // ±Inf
}

// saltedRow draws n normal values and overwrites about a quarter with
// specialBits.
func saltedRow(rng *rand.Rand, n int) []float32 {
	s := make([]float32, n)
	for i := range s {
		s[i] = float32(rng.NormFloat64())
		if rng.Intn(4) == 0 {
			s[i] = math.Float32frombits(specialBits[rng.Intn(len(specialBits))])
		}
	}
	return s
}

func sameBits(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if g, w := math.Float32bits(got[i]), math.Float32bits(want[i]); g != w {
			t.Fatalf("%s: element %d = %#08x, want %#08x", what, i, g, w)
		}
	}
}

// TestRowKernelsMatchReference runs every implementation of the row helpers
// (the AVX assembly behind the assembly tiles, the Go references behind the
// Go ones) against scalar statements written out here: the clamp on every
// special value and on random rows of length 1…70 (ragged vector tails), in
// place and into a second row; the max and the gather at strides 1–3 on
// sources that end at their last tap.
func TestRowKernelsMatchReference(t *testing.T) {
	special := make([]float32, len(specialBits))
	for i, b := range specialBits {
		special[i] = math.Float32frombits(b)
	}
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		rng := rand.New(rand.NewSource(5))
		rows := [][]float32{special}
		for n := 1; n <= 70; n++ {
			rows = append(rows, saltedRow(rng, n))
		}
		for _, src := range rows {
			want := append([]float32(nil), src...)
			epilogueRef(want, &epilogue{relu: true}, 0)
			dst := make([]float32, len(src))
			tl.clampRow(dst, src)
			sameBits(t, fmt.Sprintf("clampRow n=%d", len(src)), dst, want)
			inPlace := append([]float32(nil), src...)
			tl.clampRow(inPlace, inPlace)
			sameBits(t, fmt.Sprintf("clampRow in place n=%d", len(src)), inPlace, want)
		}
		for stride := 1; stride <= 3; stride++ {
			for n := 1; n <= 70; n++ {
				// The source ends at the last tap, as a row of the input does,
				// or one float later, which is what lets a stride-2 helper
				// take the last eight in one step.
				for extra := 0; extra <= 1; extra++ {
					src := saltedRow(rng, (n-1)*stride+1+extra)
					best := saltedRow(rng, n)
					for i, v := range best {
						if v != v {
							best[i] = float32(math.Inf(-1)) // a running maximum is never a NaN
						}
					}
					want := append([]float32(nil), best...)
					for i := range want {
						if v := src[i*stride]; v > want[i] {
							want[i] = v
						}
					}
					tl.maxRow(best, src, stride)
					sameBits(t, fmt.Sprintf("maxRow stride %d n=%d", stride, n), best, want)
					for i := range want {
						want[i] = src[i*stride]
					}
					got := make([]float32, n)
					tl.copyRow(got, src, stride)
					sameBits(t, fmt.Sprintf("copyRow stride %d n=%d", stride, n), got, want)
				}
			}
		}
	})
}

// TestTileEndsMatchReference checks what a kernel call does at the two ends
// of a tile's depth — start from the bias or from c, then {scale only, ReLU
// only, both, neither} before the store — against epilogueRef, on tiles full
// of special values (NaNs of both signs and signalling payloads, both zeros,
// denormals, infinities) that one depth step of +0 × -0 carries to the
// epilogue untouched, with a different bias, scale and shift in every row.
func TestTileEndsMatchReference(t *testing.T) {
	negZero := float32(math.Copysign(0, -1))
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		rng := rand.New(rand.NewSource(29))
		mr, nr := tl.mr, tl.nr
		ldc := nr + 3
		a := make([]float32, mr)
		b := make([]float32, nr)
		for j := range b {
			b[j] = negZero
		}
		perRow := func(zeros bool) []float32 {
			v := saltedRow(rng, mr)
			for r := range v {
				if v[r] != v[r] || zeros {
					v[r] = negZero * float32(r%2) // finite parameters; with zeros, sums of zeros of both signs
				}
			}
			return v
		}
		for trial := 0; trial < 40; trial++ {
			epis := []*epilogue{
				{scale: perRow(false), shift: perRow(false)},
				{relu: true},
				{scale: perRow(false), shift: perRow(false), relu: true},
				{scale: perRow(true), shift: perRow(true), relu: true},
				nil,
			}
			for ei, epi := range epis {
				for _, bias := range [][]float32{nil, perRow(false)} {
					c := saltedRow(rng, mr*ldc)
					want := append([]float32(nil), c...)
					for r := 0; r < mr; r++ {
						row := want[r*ldc : r*ldc+nr]
						for j := range row {
							if bias != nil {
								row[j] = bias[r]
							}
							var prod float32 = a[r] * b[j]
							row[j] += prod
						}
						if epi != nil {
							epilogueRef(row, epi, r)
						}
					}
					ends := epi.ends(0)
					ends.bias = bias
					tl.mulAdd(1, a, 1, b, nr, c, ldc, ends)
					sameBits(t, fmt.Sprintf("epilogue %d bias=%v", ei, bias != nil), c, want)
				}
			}
		}
	})
}

// TestAffineRoundsTheProduct pins the one-multiply-one-add contract on the
// affine of BatchNorm and of the fused epilogue against a product assigned to
// a float32 variable — an assignment rounds, by the language specification,
// so the reference cannot be contracted into a fused multiply-add where the
// architecture has one (arm64, GOAMD64=v3) — on operands whose fused and
// unfused results differ.
func TestAffineRoundsTheProduct(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const c, h, w = 3, 5, 7
	bn := NewBatchNorm("bn", c)
	bn.Init(rng)
	x := tensor.Rand(rng, 4, c, h, w)
	scale, shift, err := FoldBatchNorm(bn)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]float32, x.Len())
	differs := 0
	for i, v := range x.Data() {
		s, sh := scale.Data()[i/(h*w)], shift.Data()[i/(h*w)]
		var prod float32 = v * s
		want[i] = prod + sh
		if fused := float32(math.FMA(float64(v), float64(s), float64(sh))); fused != want[i] {
			differs++
		}
	}
	if differs == 0 {
		t.Fatal("no operand separates a fused multiply-add from a multiply and an add")
	}
	defer func(tl *gemmTile) { tile = tl }(tile)
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		tile = tl
		got, err := bn.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "BatchNorm.Forward", got.Data(), want)
	})
}

// maxPoolRef is the element-by-element max-pool the row-wise walk replaced:
// each output starts at -Inf and takes `if v > best { best = v }` over its
// window's taps in (ky, kx) order, padding taps skipped.
func maxPoolRef(m *MaxPool2D, x *tensor.Tensor, padH bool) *tensor.Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	padTop := 0
	if padH {
		padTop = m.Pad
	}
	oh := (h+2*padTop-m.Kernel)/m.Stride + 1
	ow := (w+2*m.Pad-m.Kernel)/m.Stride + 1
	out := tensor.New(c, oh, ow)
	xd, od := x.Data(), out.Data()
	for ci := 0; ci < c; ci++ {
		for oy := 0; oy < oh; oy++ {
			iy0 := oy*m.Stride - padTop
			for ox := 0; ox < ow; ox++ {
				ix0 := ox*m.Stride - m.Pad
				best := float32(math.Inf(-1))
				for ky := 0; ky < m.Kernel; ky++ {
					y := iy0 + ky
					if y < 0 || y >= h {
						continue
					}
					row := (ci*h + y) * w
					for kx := 0; kx < m.Kernel; kx++ {
						xx := ix0 + kx
						if xx < 0 || xx >= w {
							continue
						}
						if v := xd[row+xx]; v > best {
							best = v
						}
					}
				}
				od[(ci*oh+oy)*ow+ox] = best
			}
		}
	}
	return out
}

// TestMaxPoolMatchesElementwiseReference compares the row-wise max-pool with
// maxPoolRef bit for bit over random shapes — window 1–4 (and one wider than
// the on-stack span table), stride 1–3, padding 0–2, Forward and
// ForwardValidHInto — on inputs salted with NaNs, zeros and infinities of both
// signs and with stretches of -Inf wider than a window, through every
// implementation of the row helpers.
func TestMaxPoolMatchesElementwiseReference(t *testing.T) {
	type poolCase struct {
		m    *MaxPool2D
		x    *tensor.Tensor
		padH bool
		want *tensor.Tensor
	}
	rng := rand.New(rand.NewSource(17))
	var cases []poolCase
	for i := 0; i < 300; i++ {
		m := NewMaxPool2D("mp", 1+rng.Intn(4), 1+rng.Intn(3), rng.Intn(3))
		if i%50 == 0 {
			m.Kernel = 9
		}
		c, h, w := 1+rng.Intn(5), m.Kernel+rng.Intn(40), m.Kernel+rng.Intn(40)
		x, err := tensor.FromData(saltedRow(rng, c*h*w), c, h, w)
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 0 {
			at := rng.Intn(x.Len())
			for j := at; j < min(at+3*w, x.Len()); j++ {
				x.Data()[j] = float32(math.Inf(-1))
			}
		}
		for _, padH := range []bool{true, false} {
			cases = append(cases, poolCase{m, x, padH, maxPoolRef(m, x, padH)})
		}
	}
	defer func(tl *gemmTile) { tile = tl }(tile)
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		tile = tl
		for _, p := range []int{1, 3} {
			restore := par.SetParallelism(p)
			for _, pc := range cases {
				// pool checks the destination against the shape it works out.
				got := tensor.New(pc.want.Shape()...)
				if err := pc.m.pool(got, []*tensor.Tensor{pc.x}, pc.padH); err != nil {
					restore()
					t.Fatal(err)
				}
				sameBits(t, fmt.Sprintf("%+v padH=%v on %v", *pc.m, pc.padH, pc.x.Shape()), got.Data(), pc.want.Data())
			}
			restore()
		}
	})
}

// TestPackedSliceEqualsIm2col builds the im2col matrix of a convolution
// entry by entry and checks that convCols.pack writes exactly its rows
// [p0, p0+kc) × columns [j0, j0+w), zeros up to wPad, and nothing past that —
// for depth slices and column blocks that start and end anywhere, at strides
// 1–3, with and without height padding, whatever the row helpers.
func TestPackedSliceEqualsIm2col(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		for trial := 0; trial < 200; trial++ {
			k, s, pad := 1+rng.Intn(5), 1+rng.Intn(3), rng.Intn(4)
			inC, h, w := 1+rng.Intn(4), k+rng.Intn(30), k+rng.Intn(30)
			cc := convCols{h: h, w: w, kernel: k, stride: s, padL: pad}
			if trial%2 == 0 {
				cc.padTop = pad
			}
			cc.oh = (h+2*cc.padTop-k)/s + 1
			cc.ow = (w+2*pad-k)/s + 1
			xs := [][]float32{saltedRow(rng, inC*h*w), saltedRow(rng, inC*h*w)}
			cc.xs = xs
			// im2col[p][j], p = (ic, ky, kx), j = (oy, ox).
			depth, n := inC*k*k, cc.oh*cc.ow
			for e := range xs {
				im2col := make([]float32, depth*n)
				for p := 0; p < depth; p++ {
					ic, ky, kx := p/(k*k), p/k%k, p%k
					for j := 0; j < n; j++ {
						y, x := j/cc.ow*s+ky-cc.padTop, j%cc.ow*s+kx-pad
						if y >= 0 && y < h && x >= 0 && x < w {
							im2col[p*n+j] = xs[e][(ic*h+y)*w+x]
						}
					}
				}
				for slice := 0; slice < 4; slice++ {
					p0 := rng.Intn(depth)
					kc := 1 + rng.Intn(depth-p0)
					j0 := rng.Intn(n)
					bw := 1 + rng.Intn(n-j0)
					wPad := (bw + tl.nr - 1) / tl.nr * tl.nr
					ld := wPad + 3
					const sentinel = 12345
					dst := make([]float32, kc*ld)
					for i := range dst {
						dst[i] = sentinel
					}
					cc.pack(tl, e, p0, kc, j0, bw, wPad, dst, ld)
					what := fmt.Sprintf("k=%d s=%d pad=%d padTop=%d %dx%dx%d rows [%d,+%d) cols [%d,+%d)",
						k, s, pad, cc.padTop, inC, h, w, p0, kc, j0, bw)
					for p := 0; p < kc; p++ {
						sameBits(t, what, im2col[(p0+p)*n+j0:], dst[p*ld:p*ld+bw])
						for j := bw; j < ld; j++ {
							want := float32(0)
							if j >= wPad {
								want = sentinel
							}
							if dst[p*ld+j] != want {
								t.Fatalf("%s: row %d lane %d past the block holds %v, want %v", what, p, j, dst[p*ld+j], want)
							}
						}
					}
				}
			}
		}
	})
}
