package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0..100) of v by linear
// interpolation between order statistics. v need not be sorted.
func percentile(v []float64, p float64) float64 {
	if len(v) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	rank := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(rank))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (rank-float64(lo))*(s[lo+1]-s[lo])
}

func median(v []float64) float64 { return percentile(v, 50) }

func mean(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s / float64(len(v))
}

// speedFactor is what a duration measured between two calibrations is
// multiplied by to read as a duration on the reference host: below 1 when
// the host ran slower than the reference (its calibrations took longer).
func speedFactor(calBeforeMs, calAfterMs float64) float64 {
	return calRefMs / ((calBeforeMs + calAfterMs) / 2)
}
