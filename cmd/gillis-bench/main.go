// Command gillis-bench regenerates the Gillis paper's evaluation figures
// (§V) and this repository's serving studies on the simulated serverless
// platforms and prints each one's table.
//
// Usage:
//
//	gillis-bench [-figs 1,7,9,10,11,12,13,14,15,ablations,burst,load,kernels,chaos]
//	             [-seed N] [-queries N] [-quick] [-out FILE] [-json FILE]
//	             [-parallelism N] [-faults R1,R2,...]
//	             [-kernels-baseline FILE] [-kernels-check]
//	             [-trace-json FILE] [-trace-faults R]
//	             [-cpuprofile FILE] [-memprofile FILE]
//
// load is the first of four serving sweeps: bursty arrival traces through the
// serving gateway, burst rate × autoscaling policy, SLO attainment and cost
// per policy. -figs also takes the other three, which the default list leaves
// out: adapt (one arrival trace through each static candidate plan and then
// through the closed-loop controller while the platform degrades, recovers
// and takes a traffic surge), batch (Poisson traces through the batching
// gateway, batch size × arrival rate × planner, throughput, tail latency and
// cost per query) and mesh (Zipf-skewed multi-model traces through the
// serving mesh, catalog size × skew × pool size, LRU model caching against no
// cache). An id -figs does not know is an error.
//
// -out also writes the tables, and nothing that varies from run to run, to a
// file: with the figures of `make bench-paper` it is BENCH_paper.txt.
//
// -json writes the figure as JSON as well and is valid with exactly one
// figure that has a JSON form: kernels, chaos, load, adapt, batch, mesh — the
// BENCH_*.json baselines (see the Makefile's bench-* targets).
//
// -trace-json serves one seeded resilient fork-join query of the chaos
// workload under fault injection and writes its span tree as Chrome
// trace-event JSON (loadable in chrome://tracing or Perfetto), skipping the
// figures.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/pprof"
	"slices"
	"strconv"
	"strings"
	"time"

	"gillis/internal/bench"
	"gillis/internal/par"
)

// table is what every figure's result prints as; jsonReport is what -json
// writes, for the figures that have a checked-in BENCH_*.json baseline.
type (
	table      interface{ Table() string }
	jsonReport interface{ JSON() ([]byte, error) }
)

type figure struct {
	id      string
	hasJSON bool
	run     func(*bench.Context) (table, error)
}

func entry[T table](id string, run func(*bench.Context) (T, error)) figure {
	_, hasJSON := any(*new(T)).(jsonReport)
	return figure{id, hasJSON, func(c *bench.Context) (table, error) { return run(c) }}
}

func figures() []figure {
	return []figure{
		entry("1", bench.Fig1),
		entry("7", bench.Fig7),
		entry("9", bench.Fig9),
		entry("10", bench.Fig10),
		entry("11", bench.Fig11),
		entry("12", bench.Fig12),
		entry("13", bench.Fig13),
		entry("14", bench.Fig14),
		entry("15", bench.Fig15),
		entry("ablations", bench.Ablations),
		entry("burst", bench.Burst),
		entry("load", bench.SweepLoad),
		entry("kernels", kernels),
		entry("chaos", bench.Chaos),
		entry("adapt", bench.AdaptScenario),
		entry("batch", bench.SweepBatch),
		entry("mesh", bench.SweepMesh),
	}
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gillis-bench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("gillis-bench", flag.ContinueOnError)
	figsFlag := fs.String("figs", "1,7,9,10,11,12,13,14,15,ablations,burst,load,kernels,chaos", "comma-separated figures to run (also: adapt, batch, mesh)")
	seed := fs.Int64("seed", 42, "random seed for all stochastic components")
	queries := fs.Int("queries", 100, "queries per latency measurement")
	quick := fs.Bool("quick", false, "trim sweeps and training budgets")
	out := fs.String("out", "", "also write the tables, without the wall-clock lines, to this file")
	jsonPath := fs.String("json", "", "also write the figure as JSON to this file (a BENCH_*.json baseline); needs -figs to name exactly one of kernels, chaos, load, adapt, batch, mesh")
	parallelism := fs.Int("parallelism", 0, "kernel parallelism cap for Real-mode math (0 = GOMAXPROCS)")
	kernelsBaseline := fs.String("kernels-baseline", "", "annotate the kernels figure with before/after columns against this prior baseline JSON")
	kernelsCheck := fs.Bool("kernels-check", false, "fail if any kernel ns/op regresses more than 10% against -kernels-baseline")
	faultsFlag := fs.String("faults", "", "comma-separated fault rates for the chaos figure (default 0.02,0.05,0.10)")
	traceJSON := fs.String("trace-json", "", "trace one fork-join query and write Chrome trace-event JSON to this file")
	traceFaults := fs.Float64("trace-faults", 0.05, "fault rate for the traced query (-trace-json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile to this file on exit")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *parallelism > 0 {
		restore := par.SetParallelism(*parallelism)
		defer restore()
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		f, err := os.Create(*memprofile)
		if err != nil {
			return err
		}
		defer func() {
			pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	ctx := bench.NewContext(*seed)
	ctx.Queries = *queries
	ctx.Quick = *quick
	if *faultsFlag != "" {
		rates, err := parseRates(*faultsFlag)
		if err != nil {
			return err
		}
		ctx.FaultRates = rates
	}

	if *traceJSON != "" {
		report, err := bench.QueryTrace(ctx, *traceFaults)
		if err != nil {
			return fmt.Errorf("trace-json: %w", err)
		}
		if err := os.WriteFile(*traceJSON, report.Chrome, 0o644); err != nil {
			return err
		}
		fmt.Fprintln(stdout, report.Table())
		fmt.Fprintf(stdout, "trace written to %s\n", *traceJSON)
		return nil
	}

	all := figures()
	ids := make([]string, len(all))
	for i, fig := range all {
		ids[i] = fig.id
	}
	want := make(map[string]bool)
	for _, id := range strings.Split(*figsFlag, ",") {
		id = strings.TrimSpace(id)
		if !slices.Contains(ids, id) {
			return fmt.Errorf("-figs: unknown figure %q (valid: %s)", id, strings.Join(ids, ", "))
		}
		want[id] = true
	}
	var selected []figure
	for _, fig := range all {
		if want[fig.id] {
			selected = append(selected, fig)
		}
	}
	if *jsonPath != "" && (len(selected) != 1 || !selected[0].hasJSON) {
		return fmt.Errorf("-json writes one figure that has a JSON form: -figs %s does not select one", *figsFlag)
	}
	if *kernelsCheck && *kernelsBaseline == "" {
		return fmt.Errorf("-kernels-check requires -kernels-baseline")
	}
	if (*kernelsCheck || *kernelsBaseline != "") && !want["kernels"] {
		return fmt.Errorf("-kernels-check and -kernels-baseline need -figs to select kernels: -figs %s does not", *figsFlag)
	}

	var sink io.Writer = stdout
	var file *os.File
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		file = f
		sink = io.MultiWriter(stdout, f)
	}

	for _, fig := range selected {
		start := time.Now()
		res, err := fig.run(ctx)
		if err != nil {
			return fmt.Errorf("figure %s: %w", fig.id, err)
		}
		kr, _ := res.(*KernelReport)
		var base *KernelReport
		if kr != nil && *kernelsBaseline != "" {
			if base, err = readKernelBaseline(*kernelsBaseline); err != nil {
				return err
			}
			kr.Compare(base)
		}
		fmt.Fprintln(sink, res.Table())
		// Wall-clock goes to stdout only: what -out writes is the same bytes
		// on every run and every machine.
		fmt.Fprintf(stdout, "(figure %s regenerated in %v)\n\n", fig.id, time.Since(start).Round(time.Millisecond))
		if *jsonPath != "" {
			js, err := res.(jsonReport).JSON()
			if err != nil {
				return err
			}
			if err := os.WriteFile(*jsonPath, js, 0o644); err != nil {
				return err
			}
			fmt.Fprintf(sink, "figure %s written to %s\n", fig.id, *jsonPath)
		}
		if kr != nil && *kernelsCheck {
			err := kr.CheckRegression(0.10)
			if err != nil {
				// A sub-millisecond kernel can blow the gate on one
				// noisy sample (co-tenant or frequency jitter);
				// re-measure once before declaring a regression. A
				// real slowdown fails both attempts.
				fmt.Fprintf(sink, "kernels: %v\nkernels: re-measuring once to rule out noise\n", err)
				retry, rerr := kernels(ctx)
				if rerr != nil {
					return rerr
				}
				retry.Compare(base)
				err = retry.CheckRegression(0.10)
			}
			if err != nil {
				return err
			}
			fmt.Fprintf(sink, "kernels: no ns/op regression beyond 10%% of %s\n", *kernelsBaseline)
		}
	}
	if file != nil {
		return file.Close()
	}
	return nil
}

// readKernelBaseline loads a previously written BENCH_kernels.json report.
func readKernelBaseline(path string) (*KernelReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("kernels baseline: %w", err)
	}
	var r KernelReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("kernels baseline %s: %w", path, err)
	}
	return &r, nil
}

// parseRates parses the -faults comma-separated probability list.
func parseRates(s string) ([]float64, error) {
	var rates []float64
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		r, err := strconv.ParseFloat(part, 64)
		if err != nil || r < 0 || r > 1 {
			return nil, fmt.Errorf("invalid fault rate %q (want a probability in [0,1])", part)
		}
		rates = append(rates, r)
	}
	if len(rates) == 0 {
		return nil, fmt.Errorf("empty -faults list")
	}
	return rates, nil
}
