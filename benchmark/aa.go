package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// aaRow compares one end-to-end metric of one workload across the two sets.
type aaRow struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	Median1  float64 `json:"median_1"`
	Median2  float64 `json:"median_2"`
	// Gap is how far apart the set medians are, as a share of the first.
	Gap float64 `json:"gap"`
	// Spread is a set's interquartile range as a share of its median.
	Spread1 float64 `json:"spread_1"`
	Spread2 float64 `json:"spread_2"`
	OK      bool    `json:"ok"`
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(v, n=4) does (the exclusive method).
func quartiles(v []float64) (q1, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := len(s)
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

func spread(v []float64) float64 {
	q1, q3 := quartiles(v)
	return (q3 - q1) / median(v)
}

// runAA runs the full benchmark n times as set 1 and then n times as set 2,
// back to back — the worst case for host drift — every run on its own seed,
// and checks that two sets of runs of the same code agree within the
// benchmark's own bounds. It prints the comparison as one JSON document.
func runAA(exe string, o options, n int) int {
	type key struct{ workload, metric string }
	var sets [2]map[key][]float64
	failedOps := 0
	for set := range sets {
		sets[set] = make(map[key][]float64)
		for i := 0; i < n; i++ {
			for _, name := range workloadNames {
				res, err := runChild(exe, o, name, o.seed+int64(set*n+i), 0, os.Stderr)
				if err != nil {
					fatal(err)
				}
				failedOps += res.Failed
				for _, m := range endToEnd {
					k := key{name, m.name}
					sets[set][k] = append(sets[set][k], res.Metrics[m.name].Value)
				}
			}
		}
	}
	report := struct {
		Runs      int     `json:"runs_per_set"`
		Seconds   float64 `json:"seconds"`
		FailedOps int     `json:"failed_ops"`
		OK        bool    `json:"ok"`
		Rows      []aaRow `json:"rows"`
	}{Runs: n, Seconds: o.seconds, FailedOps: failedOps, OK: failedOps == 0}
	for _, name := range workloadNames {
		for _, m := range endToEnd {
			a, b := sets[0][key{name, m.name}], sets[1][key{name, m.name}]
			row := aaRow{
				Workload: name, Metric: m.name, Unit: m.unit, Bound: m.bound,
				Median1: median(a), Median2: median(b), Spread1: spread(a), Spread2: spread(b),
			}
			row.Gap = math.Abs(row.Median2-row.Median1) / row.Median1
			// As the driver does, set-up time is held to its bound between
			// the sets but not within one.
			row.OK = row.Gap <= m.bound &&
				(m.name == "setup_s" || (row.Spread1 <= m.bound && row.Spread2 <= m.bound))
			report.OK = report.OK && row.OK
			report.Rows = append(report.Rows, row)
		}
	}
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !report.OK {
		return 1
	}
	return 0
}
