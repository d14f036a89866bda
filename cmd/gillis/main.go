// Command gillis is the CLI front end of the Gillis reproduction: inspect
// benchmark models, profile simulated platforms, compute partitioning plans
// (latency-optimal or SLO-aware), serve queries over the fork-join runtime,
// and export models in the ONNX-lite interchange format.
//
// Usage:
//
//	gillis inspect   -model vgg16
//	gillis profile   -platform lambda
//	gillis partition -model vgg16 -platform lambda [-slo 800]
//	gillis serve     -model vgg16 -platform lambda [-slo 800] [-queries 100] [-trace t.json]
//	gillis export    -model vgg11 -out vgg11.glsm [-weights]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"gillis/internal/core"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/profile"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/stats"
	"gillis/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "gillis:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: gillis <inspect|profile|partition|serve|export> [flags]")
	}
	switch args[0] {
	case "inspect":
		return cmdInspect(args[1:], out)
	case "profile":
		return cmdProfile(args[1:], out)
	case "partition":
		return cmdPartition(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "export":
		return cmdExport(args[1:], out)
	}
	return fmt.Errorf("unknown subcommand %q", args[0])
}

func loadUnits(model string) ([]*partition.Unit, error) {
	g, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	return partition.Linearize(g)
}

func cmdInspect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inspect", flag.ContinueOnError)
	model := fs.String("model", "vgg16", "benchmark model (vgg11/16/19, resnet34/50/101, wrnD-K, rnnN)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	units, err := loadUnits(*model)
	if err != nil {
		return err
	}
	var flops, params int64
	fmt.Fprintf(out, "model %s: %d units after branch/element-wise merging\n", *model, len(units))
	fmt.Fprintf(out, "unit |            name | out shape      |  GFLOPs | weights MB | spatial | channel\n")
	for _, u := range units {
		flops += u.FLOPs
		params += u.ParamBytes
		fmt.Fprintf(out, "%4d | %15s | %-14s | %7.2f | %10.1f | %7v | %v\n",
			u.Index, trim(u.Name, 15), shapeStr(u.OutShape), float64(u.FLOPs)/1e9, float64(u.ParamBytes)/1e6, u.Spatial, u.Channel)
	}
	fmt.Fprintf(out, "total: %.2f GFLOPs, %.0f MB of weights\n", float64(flops)/1e9, float64(params)/1e6)
	return nil
}

func cmdProfile(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("profile", flag.ContinueOnError)
	platformName := fs.String("platform", "lambda", "platform: lambda, gcf, or knix")
	seed := fs.Int64("seed", 1, "profiling seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := platform.ByName(*platformName)
	if err != nil {
		return err
	}
	samples, err := profile.ProfileLayers(cfg, *seed, 3)
	if err != nil {
		return err
	}
	fits, err := profile.FitLayerModels(samples)
	if err != nil {
		return err
	}
	m, err := perf.Build(cfg, *seed, 3, 400)
	if err != nil {
		return err
	}
	comm := m.Comm()
	fmt.Fprintf(out, "platform %s profile:\n", *platformName)
	fmt.Fprintf(out, "  layer-runtime regressions (weighted least squares):\n")
	for _, q := range profile.FitQualityReport(samples, fits) {
		fmt.Fprintf(out, "    %-14s %4d samples  R²=%.4f  mean rel err %.2f%%\n",
			q.Kind, q.Samples, q.R2, q.MeanRelErr*100)
	}
	fmt.Fprintf(out, "  payload bandwidth: %.1f MB/s\n", m.NetMBps())
	fmt.Fprintf(out, "  invocation overhead: EMG(mu=%.2f ms, sigma=%.2f ms, tau=%.2f ms), mean %.2f ms\n",
		comm.Mu, comm.Sigma, 1/comm.Lambda, comm.Mean())
	fmt.Fprintf(out, "  expected max overhead across n concurrent workers:\n")
	for _, n := range []int{1, 2, 4, 8, 16} {
		fmt.Fprintf(out, "    n=%2d: %.1f ms\n", n, m.MaxCommMs(n))
	}
	return nil
}

func cmdPartition(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("partition", flag.ContinueOnError)
	model := fs.String("model", "vgg16", "benchmark model")
	platformName := fs.String("platform", "lambda", "platform: lambda, gcf, or knix")
	slo := fs.Float64("slo", 0, "latency SLO in ms; 0 selects latency-optimal mode")
	episodes := fs.Int("episodes", 1500, "RL training episodes (SLO-aware mode)")
	seed := fs.Int64("seed", 1, "seed")
	planOut := fs.String("out", "", "write the plan as JSON to this file")
	explain := fs.Bool("explain", false, "print a per-group latency/cost breakdown")
	if err := fs.Parse(args); err != nil {
		return err
	}
	units, err := loadUnits(*model)
	if err != nil {
		return err
	}
	cfg, err := platform.ByName(*platformName)
	if err != nil {
		return err
	}
	m, err := perf.Build(cfg, *seed, 2, 300)
	if err != nil {
		return err
	}
	var plan *partition.Plan
	if *slo <= 0 {
		var pred perf.PlanPrediction
		plan, pred, err = core.LatencyOptimal(m, units, core.Config{})
		if err != nil {
			return err
		}
		fmt.Fprint(out, plan)
		fmt.Fprintf(out, "predicted latency %.0f ms, billed cost %d ms\n", pred.LatencyMs, pred.BilledMs)
	} else {
		res, err := core.SLOAware(m, units, *slo, core.SLOConfig{Episodes: *episodes, Seed: *seed})
		if err != nil {
			return err
		}
		plan = res.Plan
		fmt.Fprint(out, res.Plan)
		fmt.Fprintf(out, "predicted latency %.0f ms, billed cost %d ms\n", res.Pred.LatencyMs, res.Pred.BilledMs)
		if res.Met {
			fmt.Fprintf(out, "SLO of %.0f ms is met\n", *slo)
		} else {
			fmt.Fprintf(out, "WARNING: SLO of %.0f ms is NOT met\n", *slo)
		}
	}
	if *explain {
		breakdown, err := core.Explain(m, units, plan)
		if err != nil {
			return err
		}
		fmt.Fprint(out, breakdown)
	}
	if *planOut != "" {
		if err := partition.SavePlanFile(*planOut, plan); err != nil {
			return err
		}
		fmt.Fprintf(out, "plan written to %s\n", *planOut)
	}
	return nil
}

func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	model := fs.String("model", "vgg16", "benchmark model")
	platformName := fs.String("platform", "lambda", "platform: lambda, gcf, or knix")
	slo := fs.Float64("slo", 0, "latency SLO in ms; 0 selects latency-optimal mode")
	queries := fs.Int("queries", 100, "warm queries to serve")
	seed := fs.Int64("seed", 1, "seed")
	planFile := fs.String("plan", "", "serve a previously saved plan instead of planning")
	traceOut := fs.String("trace", "", "write the first query's span tree as Chrome trace-event JSON to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *queries < 1 {
		return fmt.Errorf("serve: -queries %d: serve at least one query", *queries)
	}
	units, err := loadUnits(*model)
	if err != nil {
		return err
	}
	cfg, err := platform.ByName(*platformName)
	if err != nil {
		return err
	}
	m, err := perf.Build(cfg, *seed, 2, 300)
	if err != nil {
		return err
	}
	var plan *partition.Plan
	switch {
	case *planFile != "":
		plan, err = partition.LoadPlanFile(*planFile)
		if err == nil {
			err = plan.Validate(units)
		}
	case *slo <= 0:
		plan, _, err = core.LatencyOptimal(m, units, core.Config{})
	default:
		var res core.SLOResult
		res, err = core.SLOAware(m, units, *slo, core.SLOConfig{Seed: *seed})
		if err == nil {
			plan = res.Plan
		}
	}
	if err != nil {
		return err
	}

	var lats []float64
	var costs []float64
	var tr *trace.Trace
	_, err = platform.Run(cfg, *seed, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := 0; i < *queries; i++ {
			var r runtime.Result
			if i == 0 && *traceOut != "" {
				r, tr, err = d.ServeTraced(proc, nil)
			} else {
				r, err = d.Serve(proc, nil)
			}
			if err != nil {
				return err
			}
			lats = append(lats, r.LatencyMs)
			costs = append(costs, float64(r.BilledMs))
		}
		return nil
	})
	if err != nil {
		return err
	}
	fmt.Fprint(out, plan)
	fmt.Fprintf(out, "served %d queries on %s: mean %.0f ms, p99 %.0f ms, mean billed %.0f ms/query\n",
		*queries, *platformName, stats.Mean(lats), stats.Percentile(lats, 99), stats.Mean(costs))
	if tr != nil {
		if err := os.WriteFile(*traceOut, tr.ChromeJSON(nil), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "first query's trace written to %s (%d spans, Chrome trace-event JSON)\n", *traceOut, tr.Len())
	}
	return nil
}

func cmdExport(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	model := fs.String("model", "vgg11", "benchmark model")
	path := fs.String("out", "", "output file (.glsm)")
	weights := fs.Bool("weights", false, "materialize and include weights")
	seed := fs.Int64("seed", 1, "weight initialization seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("export: -out is required")
	}
	g, err := models.ByName(*model)
	if err != nil {
		return err
	}
	if *weights {
		g.Init(*seed)
	}
	if err := modelio.SaveFile(*path, g, *weights); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (%s, %d ops, %.0f MB of weights%s)\n",
		*path, *model, g.Len(), float64(g.ParamBytes())/1e6,
		map[bool]string{true: ", included", false: ", structure only"}[*weights])
	return nil
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

func shapeStr(shape []int) string {
	s := ""
	for i, d := range shape {
		if i > 0 {
			s += "x"
		}
		s += fmt.Sprint(d)
	}
	return s
}
