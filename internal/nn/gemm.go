package nn

import (
	"math"

	"gillis/internal/par"
)

// This file is the package's single GEMM-shaped compute engine. Conv2D
// (via im2col), Dense, and LSTM all lower onto the two micro-kernels below;
// the AVX and AVX-512 assembly in gemm_amd64.s and the pure-Go reference
// kernels here implement the exact same accumulation-order contract, so
// outputs are bitwise identical across architectures, parallelism levels,
// and partitioned execution.
//
// Accumulation-order contract:
//
//   - Matrix-panel kernel (conv): every output element accumulates its K
//     terms strictly in order, one rounding per multiply and one per add
//     (acc += a[p]*b[p], p = 0,1,2,...). SIMD lanes hold *independent*
//     output elements, never partial sums of one element, so the order per
//     element is the same whether a pixel lands in a full tile, a ragged
//     edge tile, or a differently-aligned block of a spatial partition.
//   - Row-dot kernel (dense/LSTM): each output row reduces over K in eight
//     interleaved stripes (lane q sums terms q, q+8, q+16, ...), the lanes
//     are combined by the fixed tree ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)),
//     and any K%8 tail terms are then added in order. The schedule depends
//     only on K — a layer constant — so it is invariant under parallelism
//     and channel slicing.
//
// Blocking (matrix-panel path): the register tile is tile.mr rows × tile.nr
// columns, a pair fixed once at start-up from what the CPU offers (8×32 for
// the AVX-512 kernel, 4×16 for the AVX one and the pure-Go reference). The B
// matrix is never materialised. gemmBias cuts the columns into blocks of at
// most gemmNc, and gemm.block walks each block's depth in slices of at most
// gemmKc: it packs the [kc × nc] slice of B straight from its source (for
// Conv2D the input tensor: im2col happens in the pack), then sweeps every
// mr-row band of A over the packed slice with the micro-kernel. The first
// sweep starts each tile from its bias and the last applies the layer's
// epilogue while the tile is still in registers (tileEnds), so a block's
// output is written once per depth slice and never passed over again. A
// kernel call reads one nr-float piece of each of kc packed rows plus mr
// kc-float rows of A, read in place at stride k: 384×(128+32) bytes is 60 KB
// for the 8×32 tile, of which the 12 KB of A stay in L1 across a band's panels
// while B streams through from L2, where the packed slice (at most 384×272
// floats, 408 KB) lives while the bands sweep it. See DESIGN.md §11 for what
// the sizes were measured against.
const (
	gemmKc = 384
	gemmNc = 256
	// gemmLdPad is one cache line added to the row stride of a packed
	// slice. Without it a 256-column block has rows exactly 1 KB apart, the
	// kc lines one kernel call touches share four L1 sets, and they evict
	// each other.
	gemmLdPad = 16
	// gemmGroupRows is the fewest rows of A a work item sweeps over its
	// packed slice when gemmBias has to split the bands to find parallelism
	// (few columns): each group packs its own copy of B, and 64 rows keep
	// that repeated pack under a tenth of the group's arithmetic.
	gemmGroupRows = 64
)

// gemmTile is one implementation of the matrix-panel micro-kernel and of the
// row helpers that run between two tiles: the geometry of its register tile
// and, where there is some, the assembly behind both. Every implementation
// follows the accumulation-order contract above and the per-element
// statements of the row helpers below, so which one runs never changes an
// output bit (TestKernelAsmMatchesReference,
// TestBlockedGEMMMatchesStrictKReference, TestRowKernelsMatchReference).
type gemmTile struct {
	name   string
	mr, nr int
	// asm is the kernel in gemm_amd64.s, strides in bytes; nil runs
	// mulAddTileGo at this geometry.
	asm func(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64, bias, scale, shift *float32, relu int64)
	// rows are the vector row helpers in gemm_amd64.s; nil runs their Go
	// references.
	rows *rowKernels
}

// rowKernels are the assembly row helpers of one vector level. Each handles
// n elements, n a positive multiple of rowLanes; the gemmTile methods of the
// same names run the Go reference over what is left of a row.
type rowKernels struct {
	clampRow func(n int64, dst, src *float32)
	maxRow   func(n int64, dst, src *float32)
	maxRow2  func(n int64, dst, src *float32) // src at stride 2: reads 2n floats
	copyRow2 func(n int64, dst, src *float32) // src at stride 2: reads 2n floats
}

// rowLanes is the vector width of the assembly row helpers, in floats.
const rowLanes = 8

// goTiles is the Go reference at each geometry an assembly kernel uses; the
// first, the faster of the two in scalar code, is what runs where there is no
// assembly.
func goTiles() []*gemmTile {
	return []*gemmTile{{name: "go-8x32", mr: 8, nr: 32}, {name: "go-4x16", mr: 4, nr: 16}}
}

// kernelCap, when set at link time (`make procs` passes
// -ldflags=-X=gillis/internal/nn.kernelCap=avx), keeps start-up from
// selecting a kernel above that level — "go" or "avx" — so a single runner
// puts whole test suites through every implementation it has.
var kernelCap string

// tile is the implementation every convolution runs: the first entry of
// gemmTiles(), i.e. the widest kernel the CPU and OS support.
var tile = gemmTiles()[0]

// KernelName names the matrix-panel kernel selected at start-up, e.g.
// "avx512-8x32".
func KernelName() string { return tile.name }

// tileEnds is what a kernel call does at the two ends of a tile's depth, one
// value per row of the tile. On the first depth slice bias is set and row r
// starts from bias[r] instead of from what c holds; on the last, scale and
// shift (both or neither) and relu are the epilogue, applied to the
// accumulators before they are stored: c = c*scale[r] + shift[r], a multiply
// and an add each rounded, then `if c < 0 { c = 0 }`.
type tileEnds struct {
	bias, scale, shift []float32
	relu               bool
}

// staged returns te with each of its per-row vectors, here shorter than mr,
// copied to an mr-long third of buf and followed by zeros.
func (te tileEnds) staged(buf []float32, mr int) tileEnds {
	clear(buf)
	stage := func(q int, v []float32) []float32 {
		if v == nil {
			return nil
		}
		s := buf[q*mr : (q+1)*mr]
		copy(s, v)
		return s
	}
	te.bias, te.scale, te.shift = stage(0, te.bias), stage(1, te.scale), stage(2, te.shift)
	return te
}

// mulAdd runs the micro-kernel: c[r*ldc+j] += a[r*lda+p] * b[p*ldb+j] for r
// in [0, mr), j in [0, nr), p ascending over [0, kc), between the two ends.
// Strides are in floats.
func (t *gemmTile) mulAdd(kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, ends tileEnds) {
	if t.asm == nil {
		mulAddTileGo(t.mr, t.nr, kc, a, lda, b, ldb, c, ldc, ends)
		return
	}
	// The assembly indexes from bare pointers; these are its furthest reads.
	_, _, _ = a[(t.mr-1)*lda+kc-1], b[(kc-1)*ldb+t.nr-1], c[(t.mr-1)*ldc+t.nr-1]
	var bias, scale, shift *float32
	var relu int64
	if ends.bias != nil {
		bias = &ends.bias[:t.mr][0]
	}
	if ends.scale != nil {
		scale, shift = &ends.scale[:t.mr][0], &ends.shift[:t.mr][0]
	}
	if ends.relu {
		relu = 1
	}
	t.asm(int64(kc), &a[0], int64(lda)*4, &b[0], int64(ldb)*4, &c[0], int64(ldc)*4, bias, scale, shift, relu)
}

// epilogue is a fused per-output-channel post-op applied to a finished
// output tile: an optional affine y = y*scale + shift (the BatchNorm
// inference transform) followed by an optional ReLU. Both use exactly the
// arithmetic of the standalone BatchNorm/ReLU forwards (affineClampGo states
// it), so fusing them is bitwise invisible.
type epilogue struct {
	scale []float32 // per-channel scale, nil for none
	shift []float32 // per-channel shift, same length as scale
	relu  bool
}

// ends returns the last-slice half of the tileEnds for the band of rows
// starting at channel ch. A nil epilogue has none.
func (e *epilogue) ends(ch int) tileEnds {
	if e == nil {
		return tileEnds{}
	}
	te := tileEnds{relu: e.relu}
	if e.scale != nil {
		te.scale, te.shift = e.scale[ch:], e.shift[ch:]
	}
	return te
}

// The row helpers are what runs between two tiles at vector speed: the
// standalone ReLU, the max-pool's tap walk and the stride-2 gather of the
// slice packer. Each is stated per element by its Go reference; the assembly
// in gemm_amd64.s computes exactly that, lane by lane, over the whole vectors
// of a row, and the reference finishes the row.

// affineClampGo states the affine and the clamp of BatchNorm, ReLU and the
// fused epilogue: dst[i] = clamp(src[i]*scale + shift), the affine only if
// asked for, the clamp only if relu. The conversion keeps a compiler from
// contracting the multiply and the add into one fused operation (go1.24
// does on arm64). The clamp is `if v < 0 { v = 0 }`, which keeps NaNs and -0,
// written on the bit pattern so that random signs cost no mispredicted
// branch: the values below zero are exactly the patterns from the smallest
// negative denormal (0x80000001) to -Inf (0xff800000); -0 lies below that
// range and the negative NaNs above it. dst and src have one length and are
// the same stretch or disjoint.
func affineClampGo(dst, src []float32, scale, shift float32, affine, relu bool) {
	for i, v := range src {
		if affine {
			v = float32(v*scale) + shift
		}
		if relu {
			b := math.Float32bits(v)
			if b-0x80000001 <= 0xff800000-0x80000001 {
				b = 0
			}
			v = math.Float32frombits(b)
		}
		dst[i] = v
	}
}

// wholeVectors is how many leading elements of a row of nDst the assembly
// helpers take: whole vectors, and no more than nSrc source floats cover at
// the stride (a stride-2 helper reads its taps in pairs, so one float past the
// last tap it uses).
func wholeVectors(nDst, nSrc, stride int) int {
	return min(nDst, nSrc/stride) &^ (rowLanes - 1)
}

// clampRow writes dst[i] = src[i] clamped at zero, as affineClampGo states
// it.
func (t *gemmTile) clampRow(dst, src []float32) {
	n := 0
	if t.rows != nil {
		if n = wholeVectors(len(dst), len(src), 1); n > 0 {
			t.rows.clampRow(int64(n), &dst[0], &src[0])
		}
	}
	affineClampGo(dst[n:], src[n:len(dst)], 0, 0, false, true)
}

// maxRow folds one tap of a max-pool window into a stretch of running
// maxima: dst[i] = src[i*stride] wherever src[i*stride] > dst[i]. A NaN tap
// never wins and the first zero of either sign wins a tie, as in the
// element-by-element loop `if v > best { best = v }`.
func (t *gemmTile) maxRow(dst, src []float32, stride int) {
	n := 0
	if t.rows != nil && stride <= 2 {
		if n = wholeVectors(len(dst), len(src), stride); n > 0 {
			kernel := t.rows.maxRow
			if stride == 2 {
				kernel = t.rows.maxRow2
			}
			kernel(int64(n), &dst[0], &src[0])
		}
	}
	maxRowGo(dst[n:], src[n*stride:], stride)
}

// maxRowGo is the reference of maxRow.
func maxRowGo(dst, src []float32, stride int) {
	for i := range dst {
		if v := src[i*stride]; v > dst[i] {
			dst[i] = v
		}
	}
}

// copyRow gathers dst[i] = src[i*stride].
func (t *gemmTile) copyRow(dst, src []float32, stride int) {
	if stride == 1 {
		copy(dst, src)
		return
	}
	n := 0
	if t.rows != nil && stride == 2 {
		if n = wholeVectors(len(dst), len(src), 2); n > 0 {
			t.rows.copyRow2(int64(n), &dst[0], &src[0])
		}
	}
	copyRowGo(dst[n:], src[n*stride:], stride)
}

// copyRowGo is the reference of copyRow.
func copyRowGo(dst, src []float32, stride int) {
	for i := range dst {
		dst[i] = src[i*stride]
	}
}

// gemm is one blocked product: its operands, the register tile it runs on
// and the slice geometry gemmBias picked for them.
type gemm struct {
	m, n, k int
	a, bias []float32
	b       *convCols
	epi     *epilogue
	t       *gemmTile
	depth   int // rows of B in a packed slice
	ld      int // floats between rows of a packed slice
}

// gemmBias computes outs[e][m][n] = bias[i] + a[m][k]·B_e[k][n] for every
// batch element e, applying the epilogue to each finished tile. a is
// row-major [m][k] (weight rows); the B_e are read through b.
//
// The parallel index space is chosen from the shape: column blocks (batch
// elements are just more of them) when there are enough for the workers,
// and additionally groups of row bands when the columns are few (a 7×7
// feature map is one block of 49). Work items own disjoint output tiles and
// no reduction is ever split: every element accumulates its depth slices in
// ascending order and, inside the micro-kernel, its terms in ascending p —
// the strict-k contract above — whatever the tile, the blocking or the
// parallelism level.
func gemmBias(m, n, k int, a, bias []float32, b *convCols, outs [][]float32, epi *epilogue) {
	t := tile
	// Balanced blocks of whole nr-column panels: 784 columns are four blocks
	// of 224 (8×32 tile) or 208 (4×16), not three of 256 and one of 16; 576
	// deep is two slices of 288.
	blocks := (n + gemmNc - 1) / gemmNc
	width := ((n+blocks-1)/blocks + t.nr - 1) / t.nr * t.nr
	blocks = (n + width - 1) / width
	slices := (k + gemmKc - 1) / gemmKc
	g := gemm{m: m, n: n, k: k, a: a, bias: bias, b: b, epi: epi, t: t,
		depth: (k + slices - 1) / slices, ld: width + gemmLdPad}
	// One work item per column block; with fewer blocks than workers, the
	// rows are split as well, into equal groups of whole bands that each pack
	// their own copy of the block.
	groups := 1
	if cb, p := len(outs)*blocks, par.Parallelism(); cb < p {
		groups = max(1, min((p+cb-1)/cb, m/gemmGroupRows))
	}
	groupRows := ((m+groups-1)/groups + t.mr - 1) / t.mr * t.mr
	groups = (m + groupRows - 1) / groupRows
	// Scratch per worker: the packed slice, a staged output tile and a staged
	// band of A for the ragged edges.
	nPacked, nTile := g.depth*g.ld, t.mr*t.nr
	par.For(len(outs)*blocks*groups, 2*k*width*groupRows, func(lo, hi int) {
		buf := par.GetF32(nPacked + nTile + t.mr*(g.depth+3))
		defer par.PutF32(buf)
		packed, ctile, aband := (*buf)[:nPacked], (*buf)[nPacked:nPacked+nTile], (*buf)[nPacked+nTile:]
		for idx := lo; idx < hi; idx++ {
			cb, r0 := idx/groups, idx%groups*groupRows
			e, jc := cb/blocks, cb%blocks*width
			g.block(outs[e], e, jc, min(jc+width, n), r0, min(r0+groupRows, m), packed, ctile, aband)
		}
	})
}

// block computes rows [r0, r1) × columns [jc, jEnd) of out, the product for
// batch element e: one pack and one sweep of the row bands per depth slice,
// the first sweep starting every tile from its bias and the last one running
// the epilogue before it stores. packed, ctile and aband are the caller's
// scratch.
func (g *gemm) block(out []float32, e, jc, jEnd, r0, r1 int, packed, ctile, aband []float32) {
	m, n, k, a, ld := g.m, g.n, g.k, g.a, g.ld
	mr, nr := g.t.mr, g.t.nr
	w := jEnd - jc
	for pc := 0; pc < k; pc += g.depth {
		kc := min(g.depth, k-pc)
		// Lanes past the last column of a ragged final panel multiply zeros.
		g.b.pack(g.t, e, pc, kc, jc, w, (w+nr-1)/nr*nr, packed, ld)
		for i := r0; i < r1; i += mr {
			var ends tileEnds
			if pc+kc == k {
				ends = g.epi.ends(i)
			}
			if pc == 0 {
				ends.bias = g.bias[i:]
			}
			// Full bands read their rows of A in place. The kernel always
			// reads mr rows of A and of its ends, so a last band short of mr
			// is staged, its missing rows zero; they land in tile rows never
			// copied out.
			rows := min(mr, m-i)
			ab, lda := a[i*k+pc:], k
			if rows < mr {
				ab, lda = aband[:mr*kc], kc
				for r := 0; r < rows; r++ {
					copy(ab[r*kc:(r+1)*kc], a[(i+r)*k+pc:])
				}
				clear(ab[rows*kc:])
				ends = ends.staged(aband[mr*g.depth:][:3*mr], mr)
			}
			for j := jc; j < jEnd; j += nr {
				bp := packed[j-jc:]
				if rows == mr && j+nr <= jEnd {
					g.t.mulAdd(kc, ab, lda, bp, ld, out[i*n+j:], n, ends)
					continue
				}
				// Ragged tile: the same kernel on a staged mr×nr copy, so
				// edge elements are computed exactly like interior ones.
				cols := min(nr, jEnd-j)
				clear(ctile)
				for r := 0; r < rows; r++ {
					copy(ctile[r*nr:r*nr+cols], out[(i+r)*n+j:])
				}
				g.t.mulAdd(kc, ab, lda, bp, ld, ctile, nr, ends)
				for r := 0; r < rows; r++ {
					copy(out[(i+r)*n+j:(i+r)*n+j+cols], ctile[r*nr:])
				}
			}
		}
	}
}

// mulAddTileGo is the pure-Go reference of the matrix-panel micro-kernel at
// any tile geometry: c[r][j] += a[r][p] * b[p][j] for r in [0, mr), j in
// [0, nr), p ascending, between the two ends. Bitwise identical to the
// assembly versions (independent lanes, one mul and one add rounding per term
// — the conversions keep a compiler from fusing the two — strict p order).
func mulAddTileGo(mr, nr, kc int, a []float32, lda int, b []float32, ldb int, c []float32, ldc int, ends tileEnds) {
	if ends.bias != nil {
		for r := 0; r < mr; r++ {
			crow := c[r*ldc : r*ldc+nr]
			for j := range crow {
				crow[j] = ends.bias[r]
			}
		}
	}
	for p := 0; p < kc; p++ {
		brow := b[p*ldb : p*ldb+nr]
		for r := 0; r < mr; r++ {
			v := a[r*lda+p]
			crow := c[r*ldc : r*ldc+nr]
			for j, bv := range brow {
				crow[j] += float32(v * bv)
			}
		}
	}
	if ends.scale != nil || ends.relu {
		for r := 0; r < mr; r++ {
			var s, sh float32
			if ends.scale != nil {
				s, sh = ends.scale[r], ends.shift[r]
			}
			crow := c[r*ldc : r*ldc+nr]
			affineClampGo(crow, crow, s, sh, ends.scale != nil, ends.relu)
		}
	}
}

// gemvBias computes outs[e][i] = bias[i] + w[i]·xs[e] for an [m][k] row-major
// weight matrix shared by every input vector, with an optional fused ReLU.
// Rows are processed in bands of four; every row follows the lane-striped
// reduction contract of laneDotAcc. The parallel index space is
// inputs×bands, and a band's result depends on nothing but its own input, so
// a batch is bitwise identical to one call per input.
func gemvBias(m, k int, w, bias []float32, xs, outs [][]float32, relu bool) {
	bands := (m + 3) / 4
	par.For(len(xs)*bands, 8*k, func(lo, hi int) {
		forRuns(lo, hi, bands, func(e, lo, hi int) {
			for band := lo; band < hi; band++ {
				gemvBandAt(m, k, w, bias, xs[e], outs[e], relu, band)
			}
		})
	})
}

// forRuns walks the stretch [lo, hi) of a flat batch×n index space one batch
// element at a time: body gets the element and the sub-range of [0, n) the
// stretch covers in it, so a batched loop divides once per element it
// touches instead of once per index.
func forRuns(lo, hi, n int, body func(e, lo, hi int)) {
	for lo < hi {
		e := lo / n
		end := min(hi, (e+1)*n)
		body(e, lo-e*n, end-e*n)
		lo = end
	}
}

// gemvBandAt is the per-band body of gemvBias:
// rows [band*4, band*4+4) of one output vector, full bands via gemvBand4,
// m%4 tail rows via laneDotAcc, then the optional fused ReLU.
func gemvBandAt(m, k int, w, bias, x, out []float32, relu bool, band int) {
	i := band * 4
	if i+4 <= m {
		copy(out[i:i+4], bias[i:i+4])
		gemvBand4(k, w[i*k:], k, x, out[i:i+4])
	} else {
		for r := i; r < m; r++ {
			out[r] = laneDotAcc(bias[r], w[r*k:(r+1)*k], x[:k])
		}
	}
	if relu {
		for r := i; r < min(i+4, m); r++ {
			if out[r] < 0 {
				out[r] = 0
			}
		}
	}
}

// gemvBand4 accumulates four row-dots into acc[0:4]: acc[r] += w[r·ldw:]·x
// over k terms, vector body over the largest multiple of 8 and the k tail
// added in order afterwards — the same schedule laneDotAcc implements for a
// single row.
func gemvBand4(k int, w []float32, ldw int, x, acc []float32) {
	k8 := k &^ 7
	if k8 > 0 {
		laneDotAcc4(k8, w, w[ldw:], w[2*ldw:], w[3*ldw:], x, acc)
	}
	for r := 0; r < 4; r++ {
		wr := w[r*ldw : r*ldw+k]
		s := acc[r]
		for p := k8; p < k; p++ {
			s += wr[p] * x[p]
		}
		acc[r] = s
	}
}

// laneDotAcc4Go is the pure-Go reference of the row-dot micro-kernel:
// out[r] += laneDot(w_r, x) for r in 0..3. k must be a multiple of 8.
func laneDotAcc4Go(k int, w0, w1, w2, w3, x, out []float32) {
	out[0] = laneDotAcc(out[0], w0[:k], x[:k])
	out[1] = laneDotAcc(out[1], w1[:k], x[:k])
	out[2] = laneDotAcc(out[2], w2[:k], x[:k])
	out[3] = laneDotAcc(out[3], w3[:k], x[:k])
}

// laneDotAcc is the scalar statement of the row-dot contract: eight
// interleaved partial sums over the largest multiple of 8, combined by the
// fixed tree ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)), then the tail terms in
// order. Single rows (band tails, sliced layers) and the AVX kernel agree
// bitwise because the schedule depends only on len(w).
func laneDotAcc(acc float32, w, x []float32) float32 {
	k8 := len(w) &^ 7
	var l [8]float32
	for p := 0; p < k8; p += 8 {
		wp, xp := w[p:p+8], x[p:p+8]
		for q, wv := range wp {
			l[q] += wv * xp[q]
		}
	}
	s0 := l[0] + l[4]
	s1 := l[1] + l[5]
	s2 := l[2] + l[6]
	s3 := l[3] + l[7]
	acc += (s0 + s1) + (s2 + s3)
	for p := k8; p < len(w); p++ {
		acc += w[p] * x[p]
	}
	return acc
}
