package main

import (
	"sync"
	"time"
)

// The calibration loop is the benchmark's yardstick for host speed. It is
// FROZEN: the work below and calRefMs must not change once a baseline has
// been recorded, or every reference-speed number loses its meaning. It
// imports nothing from the repo on purpose — a product change must never be
// able to move it.
//
// One rep runs two goroutines side by side (the host has two cores, and
// both the kernels and the simulator use both); each does the three kinds
// of work the workloads are made of: float32 arithmetic (the kernels), a
// goroutine hand-off over an unbuffered channel (the simulator's baton),
// and small-object allocation (request framing, report building).
const (
	calDotLen    = 64 << 10 // float32 elements per dot product
	calDotReps   = 42       // dot products per goroutine per rep
	calPingPongs = 3200     // channel round trips per rep
	calAllocs    = 32000    // 64-byte objects allocated per goroutine per rep
	calRing      = 1024     // live objects kept reachable during the churn
	calReps      = 5        // a calibration is the min of this many reps

	// calRefMs is one calibration on the host the benchmark was pinned on
	// (2-vCPU Firecracker guest, quiet). Durations measured in a slice are
	// multiplied by calRefMs / (calibration around the slice), so metrics
	// read as real units at that host's speed.
	calRefMs = 6.5
)

var (
	calVecA, calVecB [2][]float32
	calSink          float32
	calRingSink      [2][calRing]*[16]float32
)

func init() {
	for g := range calVecA {
		calVecA[g] = make([]float32, calDotLen)
		calVecB[g] = make([]float32, calDotLen)
		for i := range calVecA[g] {
			calVecA[g][i] = float32(i%17) * 0.25
			calVecB[g][i] = float32(i%13) * 0.5
		}
	}
}

func calDot(a, b []float32) float32 {
	var s float32
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// calRep does one rep of the fixed work and returns its wall time.
func calRep() time.Duration {
	ping, pong := make(chan struct{}), make(chan struct{})
	var sums [2]float32
	var wg sync.WaitGroup
	start := time.Now()
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var sum float32
			for r := 0; r < calDotReps; r++ {
				sum += calDot(calVecA[g], calVecB[g])
			}
			sums[g] = sum
			for i := 0; i < calPingPongs; i++ {
				if g == 0 {
					ping <- struct{}{}
					<-pong
				} else {
					<-ping
					pong <- struct{}{}
				}
			}
			ring := &calRingSink[g]
			for i := 0; i < calAllocs; i++ {
				o := new([16]float32)
				o[0] = float32(i)
				ring[i%calRing] = o
			}
		}(g)
	}
	wg.Wait()
	d := time.Since(start)
	calSink += sums[0] + sums[1]
	return d
}

// calibrate returns the host's current calibration time in ms: the
// fastest of calReps reps, so a rep that was preempted does not count.
func calibrate() float64 {
	best := calRep()
	for i := 1; i < calReps; i++ {
		if d := calRep(); d < best {
			best = d
		}
	}
	return float64(best) / 1e6
}
