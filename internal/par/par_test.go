package par

import (
	"math/bits"
	"sync"
	"sync/atomic"
	"testing"
)

// forceParallel raises the cap above GOMAXPROCS so the parallel path is
// exercised even on single-core CI machines.
func forceParallel(t *testing.T, n int) {
	t.Helper()
	restore := SetParallelism(n)
	t.Cleanup(restore)
}

func TestForCoversEveryIndexExactlyOnce(t *testing.T) {
	forceParallel(t, 7)
	for _, n := range []int{1, 2, 3, 13, 64, 997, 4096} {
		hits := make([]int32, n)
		For(n, minParallelWork, func(lo, hi int) {
			if lo < 0 || hi > n || lo >= hi {
				t.Errorf("n=%d: bad range [%d,%d)", n, lo, hi)
			}
			for i := lo; i < hi; i++ {
				atomic.AddInt32(&hits[i], 1)
			}
		})
		for i, h := range hits {
			if h != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, h)
			}
		}
	}
}

func TestForSmallWorkRunsInline(t *testing.T) {
	forceParallel(t, 8)
	calls := 0
	For(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline fallback got [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("inline fallback called body %d times", calls)
	}
}

func TestForParallelismOneRunsInline(t *testing.T) {
	forceParallel(t, 1)
	calls := 0
	For(1000, minParallelWork, func(lo, hi int) { calls++ })
	if calls != 1 {
		t.Fatalf("parallelism 1 called body %d times, want 1", calls)
	}
}

func TestForZeroAndNegativeN(t *testing.T) {
	called := false
	For(0, 1, func(lo, hi int) { called = true })
	For(-5, 1, func(lo, hi int) { called = true })
	if called {
		t.Fatal("body must not run for n <= 0")
	}
	// A non-positive cost estimate counts as 1.
	For(3, 0, func(lo, hi int) { called = lo == 0 && hi == 3 })
	if !called {
		t.Fatal("body must run once over [0,3) when itemCost is 0")
	}
}

func TestForNestedDoesNotDeadlock(t *testing.T) {
	forceParallel(t, 4)
	var total atomic.Int64
	For(8, minParallelWork, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			For(8, minParallelWork, func(ilo, ihi int) {
				total.Add(int64(ihi - ilo))
			})
		}
	})
	if total.Load() != 64 {
		t.Fatalf("nested For covered %d inner indices, want 64", total.Load())
	}
}

func TestForConcurrentCallers(t *testing.T) {
	forceParallel(t, 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sum := make([]int64, 256)
			For(256, minParallelWork, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					sum[i] = int64(i)
				}
			})
			for i, v := range sum {
				if v != int64(i) {
					t.Errorf("lost write at %d", i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

func TestSetParallelismRestore(t *testing.T) {
	base := Parallelism()
	restore := SetParallelism(3)
	if got := Parallelism(); got != 3 {
		t.Fatalf("Parallelism() = %d, want 3", got)
	}
	restore()
	if got := Parallelism(); got != base {
		t.Fatalf("restore: Parallelism() = %d, want %d", got, base)
	}
	// n <= 0 restores the GOMAXPROCS default.
	restore = SetParallelism(-1)
	defer restore()
	if Parallelism() < 1 {
		t.Fatal("Parallelism() must be at least 1")
	}
}

func TestScratchBufferReuse(t *testing.T) {
	// A smaller request of the same size class must reuse capacity, not
	// reallocate. Under the race detector sync.Pool drops a quarter of its
	// Puts on purpose, so one round trip may miss; twenty in a row do not.
	for attempt := 0; ; attempt++ {
		b := GetF32(2000)
		if len(*b) != 2000 {
			t.Fatalf("GetF32 len = %d, want 2000", len(*b))
		}
		(*b)[0] = 42
		PutF32(b)
		c := GetF32(1024)
		if len(*c) != 1024 {
			t.Fatalf("GetF32 len = %d, want 1024", len(*c))
		}
		reused := cap(*c) >= 2000
		PutF32(c)
		if reused {
			return
		}
		if attempt == 20 {
			t.Fatalf("scratch buffer was not reused: cap %d", cap(*c))
		}
	}
}

// TestScratchSizeClasses: a request draws only buffers of its own magnitude,
// so a small pack buffer and a large arena, alternating on one goroutine as
// they do in a forward, each get their own buffer back instead of the other's
// (which the one that came up short used to throw away).
func TestScratchSizeClasses(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 1023, 1024, 1025, 1 << 20} {
		b := GetF32(n)
		if len(*b) != n {
			t.Fatalf("GetF32(%d) len = %d", n, len(*b))
		}
		PutF32(b)
	}
	for attempt := 0; ; attempt++ {
		big, small := GetF32(1<<20), GetF32(100_000)
		pb, ps := &(*big)[0], &(*small)[0]
		PutF32(small)
		PutF32(big)
		big, small = GetF32(1<<20), GetF32(100_000)
		same := pb == &(*big)[0] && ps == &(*small)[0]
		if cap(*small) >= 1<<20 {
			t.Fatalf("a %d-float request drew a %d-float buffer", len(*small), cap(*small))
		}
		PutF32(big)
		PutF32(small)
		if same {
			return
		}
		if attempt == 20 {
			t.Fatal("alternating sizes did not get their own buffers back")
		}
	}
}

// TestScratchBorrowsNextClassUp: with its own class empty, a request takes an
// idle buffer of the next class up instead of allocating, and the buffer goes
// back to the class of its capacity.
func TestScratchBorrowsNextClassUp(t *testing.T) {
	const big, small = 3 << 12, 3 << 11 // classes 14 and 13: no other test uses them or 15, which big would borrow from
	for attempt := 0; ; attempt++ {
		// A miss below leaves a buffer in the small class; empty it.
		for f32Pools[bits.Len(small)].Get() != nil {
		}
		b := GetF32(big)
		addr := &(*b)[0]
		PutF32(b)
		s := GetF32(small)
		borrowed := &(*s)[0] == addr && len(*s) == small
		PutF32(s)
		b = GetF32(big)
		returned := &(*b)[0] == addr
		PutF32(b)
		if borrowed && returned {
			return
		}
		if attempt == 20 {
			t.Fatalf("borrowed the idle larger buffer: %v; found it in its own class again: %v", borrowed, returned)
		}
	}
}
