// Package par is the kernel execution engine: a chunked parallel-for
// primitive, and a scratch-buffer arena for zero-alloc reuse of kernel
// temporaries (packed GEMM panels, padded inputs, LSTM gate buffers).
//
// Determinism contract: For splits an index range into contiguous chunks
// and runs the caller's body over disjoint sub-ranges. Callers must only
// parallelize over *independent output elements* — never over a reduction
// dimension — so every output element is computed by exactly one goroutine
// with exactly the accumulation order of the serial loop. Under that
// discipline the result is bitwise identical at every parallelism level,
// which is the invariant Gillis's partitioned-vs-monolithic equality tests
// rely on.
//
// Scheduling: chunks are claimed from an atomic counter, so load imbalance
// between chunks (e.g. ragged tails) self-corrects. Below a minimum work
// threshold For runs the body serially inline, so tiny tensors never pay
// goroutine dispatch or synchronization overhead.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// minParallelWork is the minimum estimated scalar-op count of a loop before
// For considers spawning workers. Starting and joining a goroutine costs on
// the order of a microsecond; 32k float ops take several times that on one
// core, so smaller loops run inline.
const minParallelWork = 32 * 1024

// minChunkWork is the minimum estimated scalar-op count per claimed chunk,
// bounding the number of atomic claims per For call.
const minChunkWork = 8 * 1024

// chunksPerWorker is the target number of chunks each worker claims, giving
// the atomic-counter scheduler room to rebalance uneven chunks.
const chunksPerWorker = 4

// limit holds the configured parallelism cap; 0 means "use GOMAXPROCS".
var limit atomic.Int32

// Parallelism returns the current worker cap for For: the value installed by
// SetParallelism, or GOMAXPROCS when unset.
func Parallelism() int {
	if n := limit.Load(); n > 0 {
		return int(n)
	}
	return runtime.GOMAXPROCS(0)
}

// SetParallelism caps For at n workers (n <= 0 restores the GOMAXPROCS
// default) and returns a function restoring the previous cap. The cap is a
// property of the process, like GOMAXPROCS: set it at start-up (gillis-bench
// -parallelism), between the runs of a sweep (the kernels figure), or around a
// test. Nothing in the repository calls it while a simulation runs, and a
// deployment cannot ask for a width of its own. It only affects scheduling,
// never results: kernels built on For are bitwise deterministic at every
// parallelism level.
func SetParallelism(n int) (restore func()) {
	if n < 0 {
		n = 0
	}
	prev := limit.Swap(int32(n))
	return func() { limit.Store(prev) }
}

// For runs body over the index range [0, n), split into contiguous disjoint
// chunks. itemCost is the caller's estimate of scalar operations per index;
// when n*itemCost is below the parallel threshold, or the parallelism cap is
// 1, the body runs inline as body(0, n). For returns only after every index
// has been processed.
//
// The body may be called concurrently from multiple goroutines with disjoint
// [lo, hi) ranges; it must not write outside the output elements owned by
// its range.
func For(n, itemCost int, body func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if itemCost < 1 {
		itemCost = 1
	}
	p := Parallelism()
	if p > n {
		p = n
	}
	if p <= 1 || n*itemCost < minParallelWork {
		body(0, n)
		return
	}
	chunk := n / (p * chunksPerWorker)
	if min := (minChunkWork + itemCost - 1) / itemCost; chunk < min {
		chunk = min
	}

	var next atomic.Int64
	run := func() {
		for {
			hi := int(next.Add(int64(chunk)))
			lo := hi - chunk
			if lo >= n {
				return
			}
			if hi > n {
				hi = n
			}
			body(lo, hi)
		}
	}
	// p-1 fresh goroutines plus the caller, all running one shared closure
	// (allocated once, not per worker). A For joins every goroutine it
	// starts before returning, so a body that itself calls For only ever
	// waits on goroutines of its own, whatever GOMAXPROCS is.
	var wg sync.WaitGroup
	wg.Add(p - 1)
	task := func() {
		defer wg.Done()
		run()
	}
	for i := 1; i < p; i++ {
		go task()
	}
	run()
	wg.Wait()
}
