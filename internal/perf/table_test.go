package perf

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"gillis/internal/partition"
	"gillis/internal/stats"
)

// forkJoinMsTrialMajor is the order statistic as the table priced it before
// its draws were stored worker-major: the same seed and draw order, the
// draws of one trial side by side, four trials per pass over the workers,
// each with its own running maximum taken by comparison, summed in trial
// order. It is the oracle forkJoinMs must match bit for bit.
func forkJoinMsTrialMajor(m *Model, offsets, comps []float64) float64 {
	const trials = forkJoinTrials
	n := len(offsets)
	rng := rand.New(rand.NewSource(0x6f725374))
	d := make([]float64, trials*n)
	for i := range d {
		d[i] = m.comm.Sample(rng)
	}
	var sum float64
	for tr := 0; tr < trials; tr += 4 {
		d0, d1, d2, d3 := d[tr*n:][:n], d[(tr+1)*n:][:n], d[(tr+2)*n:][:n], d[(tr+3)*n:][:n]
		w0, w1, w2, w3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for i, off := range offsets {
			c := comps[i]
			if v := off + d0[i] + c; v > w0 {
				w0 = v
			}
			if v := off + d1[i] + c; v > w1 {
				w1 = v
			}
			if v := off + d2[i] + c; v > w2 {
				w2 = v
			}
			if v := off + d3[i] + c; v > w3 {
				w3 = v
			}
		}
		sum += w0
		sum += w1
		sum += w2
		sum += w3
	}
	return sum / trials
}

// TestForkJoinMsMatchesTrialMajor holds the worker-major order statistic to
// the trial-major oracle, float bits and all: on random rounds at every
// fan-out from 1 to 16, on rounds whose workers tie, and on one table reused
// across fan-outs in both directions. The wide overhead distribution draws
// negative overheads too.
func TestForkJoinMsMatchesTrialMajor(t *testing.T) {
	wide, err := New(lambda(t).Platform(), lambda(t).layers, stats.EMG{Mu: 1, Sigma: 6, Lambda: 0.3}, 50)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	for _, c := range []struct {
		name string
		m    *Model
	}{{"fitted", lambda(t)}, {"wide", wide}} {
		name, m := c.name, c.m
		check := func(tab *Table, what string, offsets, comps []float64) {
			t.Helper()
			got, want := tab.forkJoinMs(offsets, comps), forkJoinMsTrialMajor(m, offsets, comps)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s: %s, fan-out %d: worker-major %v (%#x), trial-major %v (%#x)",
					name, what, len(offsets), got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
		round := func(n int) (offsets, comps []float64) {
			offsets, comps = make([]float64, n), make([]float64, n)
			var up float64
			for i := range offsets {
				up += rng.Float64() * 20
				offsets[i], comps[i] = up, rng.ExpFloat64()*100
			}
			return offsets, comps
		}
		shared := m.Table(nil, 1)
		for n := 1; n <= 16; n++ {
			for k := 0; k < 3; k++ {
				offsets, comps := round(n)
				check(m.Table(nil, 1), "random round, fresh table", offsets, comps)
				check(shared, "random round, shared table", offsets, comps)
			}
			// Ties: equal offsets and compute; zero offsets and compute; and
			// compute so large that every draw rounds away, so all workers'
			// sums are the same number in every trial.
			same := make([]float64, n)
			for i := range same {
				same[i] = 7.25
			}
			check(shared, "equal offsets and compute", same, same)
			zero := make([]float64, n)
			check(shared, "zero offsets and compute", zero, zero)
			huge := make([]float64, n)
			for i := range huge {
				huge[i] = 1e20
			}
			check(shared, "compute that swamps every draw", zero, huge)
		}
		for n := 16; n >= 1; n-- {
			offsets, comps := round(n)
			check(shared, "random round, shared table, fan-out falling", offsets, comps)
		}
	}
}

// A table prices a group's compute from units it priced once each, and that
// is Model.GroupComputeMs bit for bit, whatever the table priced before.
func TestTableComputeMatchesModel(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "resnet34")
	tab := m.Table(units, 1)
	rng := rand.New(rand.NewSource(5))
	for k := 0; k < 200; k++ {
		first := rng.Intn(len(units))
		last := first + rng.Intn(len(units)-first)
		got, err := tab.groupComputeMs(first, last)
		if err != nil {
			t.Fatal(err)
		}
		want, err := m.GroupComputeMs(units, first, last)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("units %d..%d: table %v, model %v", first, last, got, want)
		}
	}
}

// A table prices a spatial group off the one walk back from its last unit
// that its first miss at that unit started, whatever order the groups are
// asked in; every Extent it returns is GroupExtent's, and so is every error.
func TestTableExtentMatchesGroupExtent(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "resnet34")
	tab := m.Table(units, 1)
	rng := rand.New(rand.NewSource(3))
	opts := []partition.Option{{Dim: partition.DimNone, Parts: 1}, {Dim: partition.DimChannel, Parts: 4}}
	for _, p := range []int{2, 3, 4, 8, 16} {
		opts = append(opts, partition.Option{Dim: partition.DimSpatial, Parts: p})
	}
	for k := 0; k < 2000; k++ {
		first := rng.Intn(len(units))
		last := first + rng.Intn(len(units)-first)
		opt := opts[rng.Intn(len(opts))]
		got, gotErr := tab.Extent(first, last, opt)
		want, wantErr := partition.GroupExtent(units, first, last, opt)
		if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("units %d..%d %v: table error %v, GroupExtent error %v", first, last, opt, gotErr, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("units %d..%d %v: table %+v, GroupExtent %+v", first, last, opt, got, want)
		}
	}
}
