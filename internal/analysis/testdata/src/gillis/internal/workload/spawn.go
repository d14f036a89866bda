// Package workload is a goleak fixture impersonating a simnet-clocked
// package: the loader remaps testdata/src/<path> to <path>, so this file
// type-checks as gillis/internal/workload. It exercises every join shape
// goleak recognizes — WaitGroup, channel, simnet.Promise, deferred joins —
// and the violation shapes: no join at all, a join on only some paths,
// and an opaque spawned function value. It imports the real simnet
// package (the fixture tree has no simnet directory, so the loader falls
// back to the module's), proving fixtures can mix impersonated and real
// packages.
package workload

import (
	"sync"

	"gillis/internal/simnet"
)

// Leak spawns and forgets: no join primitive at all.
func Leak(xs []float64) {
	go func() { // want: no join primitive
		for range xs {
		}
	}()
}

// JoinedWG is the blessed fork-join shape.
func JoinedWG(xs []float64) {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range xs {
		}
	}()
	wg.Wait()
}

// JoinedChan joins through a completion channel.
func JoinedChan() int {
	done := make(chan int, 1)
	go func() {
		done <- 42
	}()
	return <-done
}

// JoinedRange joins by draining a closed channel.
func JoinedRange(xs []float64) float64 {
	out := make(chan float64, len(xs))
	go func() {
		for _, x := range xs {
			out <- x
		}
		close(out)
	}()
	var s float64
	for v := range out {
		s += v
	}
	return s
}

// JoinedPromise joins through a simnet promise, the simulation's native
// completion primitive.
func JoinedPromise(env *simnet.Env, p *simnet.Proc) int {
	pr := simnet.NewPromise[int](env)
	go func() {
		pr.Resolve(42)
	}()
	v, _ := pr.Wait(p)
	return v
}

// JoinedDeferred joins on every return path via a deferred Wait.
func JoinedDeferred(xs []float64) {
	var wg sync.WaitGroup
	defer wg.Wait()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for range xs {
		}
	}()
}

// ConditionalJoin waits on only one branch: the goroutine escapes when
// drain is false.
func ConditionalJoin(drain bool) {
	done := make(chan struct{})
	go func() { // want: join is conditional
		close(done)
	}()
	if drain {
		<-done
	}
}

// OpaqueSpawn hands an arbitrary function value to the scheduler; its
// join contract is invisible here.
func OpaqueSpawn(fn func()) {
	go fn() // want: opaque function value
}

// AllowedDetached is a justified detached worker.
func AllowedDetached(stop chan struct{}) {
	//gillis:allow goleak fixture demonstrates a justified process-lifetime worker
	go func() {
		<-stop
	}()
}

// SharedWorker spawns several goroutines from one closure bound to a local
// variable; the literal is in plain sight, so its WaitGroup contract counts.
func SharedWorker(xs []float64) {
	var wg sync.WaitGroup
	wg.Add(3)
	task := func() {
		defer wg.Done()
		for range xs {
		}
	}
	for i := 0; i < 3; i++ {
		go task()
	}
	wg.Wait()
}

// ReboundWorker reassigns the variable before spawning it: which body runs
// is no longer a matter of reading one literal.
func ReboundWorker(fn func()) {
	var wg sync.WaitGroup
	wg.Add(1)
	task := func() { wg.Done() }
	task = fn
	go task() // want: opaque function value
	wg.Wait()
}
