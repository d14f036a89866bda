package nn

import "testing"

// TestLevelOf walks the detection decision over synthetic CPUID/XCR0 values:
// an extension counts only when the CPU reports it and the OS saves its
// state.
func TestLevelOf(t *testing.T) {
	const (
		ecxAVX    = cpuidOSXSAVE | cpuidAVX
		ebxAVX512 = cpuidAVX512F
	)
	for _, tc := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             kernelLevel
	}{
		{"nothing", 0, 0, 0, levelGo},
		{"OSXSAVE off", cpuidAVX, ebxAVX512, xcr0ZMM, levelGo},
		{"no AVX bit", cpuidOSXSAVE, ebxAVX512, xcr0ZMM, levelGo},
		{"SSE-only XCR0", ecxAVX, ebxAVX512, 0x02, levelGo},
		{"AVX", ecxAVX, 0, xcr0YMM, levelAVX},
		{"YMM-only XCR0", ecxAVX, ebxAVX512, xcr0YMM, levelAVX},
		{"opmask without ZMM state", ecxAVX, ebxAVX512, 0x26, levelAVX},
		{"ZMM XCR0 without AVX512F", ecxAVX, 0, xcr0ZMM, levelAVX},
		{"AVX-512", ecxAVX, ebxAVX512, xcr0ZMM, levelAVX512},
		{"AVX-512 with more state enabled", ecxAVX | 1<<12, ebxAVX512 | 1<<5, xcr0ZMM | 0x300, levelAVX512},
	} {
		if got := levelOf(tc.ecx1, tc.ebx7, tc.xcr0); got != tc.want {
			t.Errorf("%s: levelOf(%#x, %#x, %#x) = %d, want %d", tc.name, tc.ecx1, tc.ebx7, tc.xcr0, got, tc.want)
		}
	}
	if got := detectLevel(); cpuLevel > got {
		t.Errorf("cpuLevel %d above what detectLevel reports (%d)", cpuLevel, got)
	}
}

// TestKernelCapGoRunsNoAssembly is TestSelectedKernel's other half: a run
// linked with kernelCap=go (as `make procs` does) must have nothing but the Go
// references to dispatch to — no assembly tile, no assembly row helper, and a
// level below the one the row-dot kernel asks for.
func TestKernelCapGoRunsNoAssembly(t *testing.T) {
	if kernelCap != "go" {
		t.Skipf("kernelCap is %q", kernelCap)
	}
	if cpuLevel != levelGo {
		t.Errorf("cpuLevel %d under kernelCap=go", cpuLevel)
	}
	for _, tl := range append(gemmTiles(), tile) {
		if tl.asm != nil || tl.rows != nil {
			t.Errorf("tile %s carries assembly under kernelCap=go", tl.name)
		}
	}
}
