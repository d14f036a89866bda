package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"
)

// runSelftest checks the benchmark's own arithmetic on synthetic data and
// smokes every workload for a second. It is a mode of the command rather
// than _test.go files so that the repo's tier-1 and coverage gates do not
// grow.
func runSelftest(o options) int {
	failures := 0
	check := func(name string, got, want float64) {
		if math.Abs(got-want) > 1e-9*math.Max(1, math.Abs(want)) {
			fmt.Printf("FAIL %s: got %v, want %v\n", name, got, want)
			failures++
		}
	}

	ten := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	check("percentile p50", percentile(ten, 50), 5.5)
	check("percentile p90", percentile(ten, 90), 9.1)
	check("percentile p0", percentile(ten, 0), 1)
	check("percentile p100", percentile(ten, 100), 10)
	check("median of one", median([]float64{3}), 3)
	q1, q3 := quartiles(ten) // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	check("quartile 1", q1, 2.75)
	check("quartile 3", q3, 8.25)
	check("spread", spread(ten), 1)

	// A host running at half the reference speed calibrates twice as slow,
	// and everything measured on it reads at half its duration.
	check("speed factor", speedFactor(2*calRefMs, 2*calRefMs), 0.5)
	check("speed factor mean", speedFactor(calRefMs, 3*calRefMs), 0.5)
	check("normalise ms", normalise(metric{"t", 10, "ms"}, 0.5).Value, 5)
	check("normalise rate", normalise(metric{"r", 10, "1/s"}, 0.5).Value, 20)
	check("normalise ratio", normalise(metric{"x", 10, "x"}, 0.5).Value, 10)
	s := summarize([]sliceResult{
		{calBeforeMs: calRefMs, calAfterMs: calRefMs, latMs: []float64{100, 100}, elapsedS: 1, cpuS: 0.5},
		{calBeforeMs: 2 * calRefMs, calAfterMs: 2 * calRefMs, latMs: []float64{200, 200}, elapsedS: 2, cpuS: 1},
		{calBeforeMs: calRefMs, calAfterMs: calRefMs, latMs: []float64{1}, elapsedS: 9, traced: true},
	}, false)
	check("summary ops", float64(s.ops), 4)
	check("summary ops_per_s", s.opsPerS, 2)
	check("summary p50", s.p50Ms, 100)
	check("summary p90", s.p90Ms, 100)
	check("summary cpu", s.cpuMsOp, 250)
	check("summary raw ops_per_s", s.rawOpsPerS, 4.0/3)

	// Op 0: root [0,100] with children a [10,40] and b [50,70]; a has a
	// child c [20,30]. Op 1: root [0,50] with child a [0,20].
	self := selfTimes([]span{
		{"w", 0, 0, -1, "root", 0, 100e6},
		{"w", 0, 1, 0, "a", 10e6, 40e6},
		{"w", 0, 2, 1, "c", 20e6, 30e6},
		{"w", 0, 3, 0, "b", 50e6, 70e6},
		{"w", 1, 0, -1, "root", 0, 50e6},
		{"w", 1, 1, 0, "a", 0, 20e6},
		{"other", 2, 0, -1, "root", 0, 1e9},
	}, "w")
	check("self root", self["root"], (50+30)/2.0)
	check("self a", self["a"], (20+20)/2.0)
	check("self b", self["b"], 20/2.0)
	check("self c", self["c"], 10/2.0)

	if err := checkManifest("BENCHMARK.json"); err != nil {
		fmt.Printf("FAIL %v\n", err)
		failures++
	}
	for _, name := range workloadNames {
		if err := smoke(name, o); err != nil {
			fmt.Printf("FAIL smoke %s: %v\n", name, err)
			failures++
		}
	}
	if failures > 0 {
		fmt.Printf("selftest: %d failures\n", failures)
		return 1
	}
	fmt.Println("selftest: ok")
	return 0
}

// checkManifest compares BENCHMARK.json at the root of the checkout
// (run.sh's working directory) with the workload and end-to-end tables
// compiled into the command.
func checkManifest(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var m struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit string
			Bound      float64
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(m.Workloads) != len(workloadNames) || len(m.EndToEnd) != len(endToEnd) {
		return fmt.Errorf("%s: %d workloads and %d end-to-end metrics, the command has %d and %d",
			path, len(m.Workloads), len(m.EndToEnd), len(workloadNames), len(endToEnd))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			return fmt.Errorf("%s: workload %q, the command has %q", path, w.Name, workloadNames[i])
		}
	}
	for i, e := range m.EndToEnd {
		if c := endToEnd[i]; e.Name != c.name || e.Unit != c.unit || e.Bound != c.bound {
			return fmt.Errorf("%s: metric %s %s bound %v, the command has %s %s bound %v",
				path, e.Name, e.Unit, e.Bound, c.name, c.unit, c.bound)
		}
	}
	return nil
}

// smoke sets a workload up once and drives it for a second, untraced and
// traced.
func smoke(name string, o options) error {
	w, err := newSUT(name, o, true)
	if err != nil {
		return err
	}
	if err := w.start(); err != nil {
		return err
	}
	defer w.stop()
	slices, err := timedPhase(w, name, time.Second, time.Second/2, newSpanLog())
	if err != nil {
		return err
	}
	for _, traced := range []bool{false, true} {
		s := summarize(slices, traced)
		if s.firstErr != nil {
			return s.firstErr
		}
		if s.ops == 0 {
			return fmt.Errorf("no ops completed (traced=%v)", traced)
		}
	}
	fmt.Printf("ok   smoke %s\n", name)
	return nil
}
