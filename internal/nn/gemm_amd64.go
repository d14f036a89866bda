//go:build amd64

package nn

// The matrix-panel micro-kernels of gemm_amd64.s. Strides are in bytes; each
// reads mr rows of a, kc rows of b and updates an mr×nr tile of c in place,
// starting from bias instead of c and applying scale, shift and relu before
// the store where those are set (mr floats each, see tileEnds).
func gemmKernel8x32(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64, bias, scale, shift *float32, relu int64)
func gemmKernel4x16(kc int64, a *float32, lda int64, b *float32, ldb int64, c *float32, ldc int64, bias, scale, shift *float32, relu int64)

// gemvKernel4x8 is the AVX row-dot micro-kernel (gemm_amd64.s):
// out[r] += laneDot(w_r[0:k], x[0:k]) for r in 0..3. k must be a multiple
// of 8.
func gemvKernel4x8(k int64, w0, w1, w2, w3, x, out *float32)

// The AVX row helpers of gemm_amd64.s; n is a positive multiple of rowLanes.
// The stride-2 pair reads src[0:2n].
func clampRowAVX(n int64, dst, src *float32)
func maxRowAVX(n int64, dst, src *float32)
func maxRow2AVX(n int64, dst, src *float32)
func copyRow2AVX(n int64, dst, src *float32)

func cpuidAsm(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbvAsm() (eax, edx uint32)

// kernelLevel is how wide a vector state the CPU offers and the OS saves.
type kernelLevel int

const (
	levelGo kernelLevel = iota // no usable vector extension: pure-Go kernels
	levelAVX
	levelAVX512
)

// cpuLevel is read once at start-up (and lowered to kernelCap, if set); the
// kernels selected from it never change an output bit, only how fast it is
// computed.
var cpuLevel = min(detectLevel(), capLevel(kernelCap))

// capLevel is the highest level a kernelCap value admits.
func capLevel(name string) kernelLevel {
	switch name {
	case "", "avx512":
		return levelAVX512
	case "avx":
		return levelAVX
	}
	return levelGo
}

// detectLevel reads CPUID and XCR0 once.
func detectLevel() kernelLevel {
	maxLeaf, _, _, _ := cpuidAsm(0, 0)
	if maxLeaf < 1 {
		return levelGo
	}
	_, _, ecx1, _ := cpuidAsm(1, 0)
	var ebx7, xcr0 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuidAsm(7, 0)
	}
	if ecx1&cpuidOSXSAVE != 0 { // XGETBV faults without it
		xcr0, _ = xgetbvAsm()
	}
	return levelOf(ecx1, ebx7, xcr0)
}

const (
	cpuidOSXSAVE = 1 << 27 // leaf 1 ECX
	cpuidAVX     = 1 << 28 // leaf 1 ECX
	cpuidAVX512F = 1 << 16 // leaf 7 EBX
	xcr0YMM      = 0x06    // SSE and AVX state
	xcr0ZMM      = 0xe6    // plus opmask, ZMM0-15 upper halves, ZMM16-31
)

// levelOf is the decision detectLevel makes, over register values: a vector
// extension counts only if the CPU has it and the OS saves its state across
// context switches.
func levelOf(leaf1ECX, leaf7EBX, xcr0 uint32) kernelLevel {
	if leaf1ECX&cpuidOSXSAVE == 0 || leaf1ECX&cpuidAVX == 0 || xcr0&xcr0YMM != xcr0YMM {
		return levelGo
	}
	if leaf7EBX&cpuidAVX512F == 0 || xcr0&xcr0ZMM != xcr0ZMM {
		return levelAVX
	}
	return levelAVX512
}

// gemmTiles lists the matrix-panel implementations this CPU can run, fastest
// first: the assembly kernels it supports, then the Go reference at each of
// their geometries.
func gemmTiles() []*gemmTile {
	var ts []*gemmTile
	rows := &rowKernels{clampRow: clampRowAVX, maxRow: maxRowAVX, maxRow2: maxRow2AVX, copyRow2: copyRow2AVX}
	if cpuLevel >= levelAVX512 {
		ts = append(ts, &gemmTile{name: "avx512-8x32", mr: 8, nr: 32, asm: gemmKernel8x32, rows: rows})
	}
	if cpuLevel >= levelAVX {
		ts = append(ts, &gemmTile{name: "avx-4x16", mr: 4, nr: 16, asm: gemmKernel4x16, rows: rows})
	}
	return append(ts, goTiles()...)
}

func laneDotAcc4(k int, w0, w1, w2, w3, x, out []float32) {
	if cpuLevel >= levelAVX {
		gemvKernel4x8(int64(k), &w0[0], &w1[0], &w2[0], &w3[0], &x[0], &out[0])
		return
	}
	laneDotAcc4Go(k, w0, w1, w2, w3, x, out)
}
