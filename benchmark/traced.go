package main

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// runTraced is the traced run. Whichever workload is named, it covers all
// four, because every per-layer metric is printed by every traced run: each
// workload gets an eighth of the time, in slices that alternate untraced
// and traced so that both see the same host, and the layer probes get the
// other half. End-to-end metrics never come from here.
func runTraced(o options) int {
	total := time.Duration(o.seconds * float64(time.Second))
	log := newSpanLog()
	var out []metric
	var cals, speeds []float64
	attempted, failed := 0, 0
	var firstErr error

	for _, name := range workloadNames {
		w, err := newSUT(name, o, true)
		if err != nil {
			fatal(err)
		}
		if err := w.start(); err != nil {
			fatal(err)
		}
		phase, err := timedPhase(w, name, total/8, total/32, log)
		if err != nil {
			fatal(err)
		}
		w.stop()
		plain, traced := summarize(phase, false), summarize(phase, true)
		attempted += plain.ops + plain.failed + traced.ops + traced.failed
		failed += plain.failed + traced.failed
		for _, s := range []summary{plain, traced} {
			if firstErr == nil {
				firstErr = s.firstErr
			}
			cals = append(cals, s.calMs)
			speeds = append(speeds, s.speedMin, s.speedMax)
		}

		self := selfTimes(log.spans, name)
		if strings.HasPrefix(name, "http_") {
			// What the real round trip costs beyond the in-process replica
			// of the same request: sockets, net/http, and contention.
			self["http_remainder"] = self["http_roundtrip"] - self["replica"]
			for _, n := range replicaSpans {
				self["http_remainder"] -= self[n]
			}
		}
		// Spans are recorded as measured; their means are brought to
		// reference speed with the traced slices' overall speed factor.
		f := traced.normElapsedS / traced.elapsedS
		for _, n := range w.spanNames() {
			out = append(out, metric{"span." + name + "." + n, self[n] * f, "ms"})
		}
		out = append(out,
			metric{"raw." + name + ".ops_per_s", plain.rawOpsPerS, "1/s"},
			metric{"raw." + name + ".op_p50_ms", plain.rawP50Ms, "ms"},
			metric{"trace.overhead." + name, traced.opsPerS / plain.opsPerS, "x"},
		)
	}

	p := &probes{
		// The probes get half the run; the one-shot ones take most of it,
		// and the fifteen repeated-call ones share the rest.
		budget: total / 150,
		dir:    o.tmpDir, serverBin: o.serverBin, seed: o.seed,
	}
	cal := calibrate()
	for _, g := range probeGroups {
		ms, err := g.run(p)
		if err != nil {
			fatal(fmt.Errorf("probe group %s: %w", g.name, err))
		}
		before := cal
		cal = calibrate()
		f := speedFactor(before, cal)
		cals = append(cals, (before+cal)/2)
		speeds = append(speeds, f)
		for _, m := range ms {
			out = append(out, normalise(m, f))
		}
	}
	out = append(out,
		metric{"host.cal_ms", mean(cals), "ms"},
		metric{"host.speed_min", slices.Min(speeds), "x"},
		metric{"host.speed_max", slices.Max(speeds), "x"},
	)

	if o.spans != "" {
		if err := log.writeFile(o.spans); err != nil {
			fatal(err)
		}
	}
	res := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	fmt.Printf("traced run  seed %d  %d ops  %d failed  %d spans\n", o.seed, attempted, failed, len(log.spans))
	for _, m := range out {
		res.Metrics[m.Name] = m
		fmt.Printf("  %-40s %14.4f %s\n", m.Name, m.Value, m.Unit)
	}
	if firstErr != nil {
		fmt.Printf("  first failure: %v\n", firstErr)
	}
	return printResult(res)
}
