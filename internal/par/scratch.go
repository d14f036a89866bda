package par

import (
	"math/bits"
	"sync"
)

// The scratch arena recycles float32 buffers across kernel invocations so
// hot forwards allocate nothing beyond their output tensor: a worker's packed
// GEMM slice, an LSTM's state slabs, and the activation arena a whole graph
// forward runs in. The serving runtime keeps the tensors a pass hands from
// one layer group to the next here too (runtime/buffers.go). sync.Pool keeps per-P free lists, so concurrent forwards
// (one per simulated function instance, or one per serving goroutine) each
// reuse their own warm buffers without contention.
//
// Buffers are pooled by size class — class c holds capacities in
// [2^(c-1), 2^c) — so a request only ever draws a buffer of its own
// magnitude: with one pool, a 400 KB pack buffer and a multi-megabyte arena
// kept drawing each other, and whichever came up short was thrown away and
// allocated (and zeroed) again. A buffer is allocated at the length asked for,
// not the class's top, so a class retains what its largest request needed and
// no more, and a request whose own class is empty borrows an idle buffer of
// the next class up before it allocates (the buffer goes back to its own class
// afterwards, so nothing is discarded). What the pools hold counts towards the
// live heap the collector doubles, so retention matters: it is one arena per
// forward in flight, not one buffer per tensor or per magnitude.
//
// Buffers are returned with undefined contents; callers that need zeroed
// storage (e.g. padded-input staging) must clear the region themselves.
var f32Pools [bits.UintSize + 1]sync.Pool

// GetF32 returns a length-n float32 scratch buffer with undefined contents.
// The *[]float32 handle must be released with PutF32 when the kernel is
// done; the slice must not be retained afterwards.
func GetF32(n int) *[]float32 {
	c := bits.Len(uint(n))
	b, _ := f32Pools[c].Get().(*[]float32)
	if b == nil && c < bits.UintSize {
		// A served query that alternates two magnitudes (a spatial group's
		// arena, then a whole group's) then retains one buffer, not one of
		// each: 8 MB of a served resnet34's peak RSS.
		b, _ = f32Pools[c+1].Get().(*[]float32)
	}
	if b == nil {
		b = new([]float32)
	}
	if cap(*b) < n {
		*b = make([]float32, n)
	}
	*b = (*b)[:n]
	return b
}

// PutF32 returns a buffer obtained from GetF32 to the arena.
func PutF32(b *[]float32) {
	f32Pools[bits.Len(uint(cap(*b)))].Put(b)
}
