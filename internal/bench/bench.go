// Package bench reproduces every data figure of the Gillis paper's
// evaluation (§V): one runner per figure, each printing the same rows or
// series the paper reports. See DESIGN.md for the experiment index and
// EXPERIMENTS.md for paper-vs-measured outcomes.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/stats"
	"gillis/internal/trace"
)

// Context caches fitted performance models and linearized units across
// experiment runners. It belongs to the goroutine that runs them: nothing in
// the package starts another.
type Context struct {
	// Seed drives every stochastic component.
	Seed int64
	// Queries per measurement (the paper uses 100 for latency figures).
	Queries int
	// Quick trims sweeps and training budgets for use under testing.B.
	Quick bool
	// FaultRates overrides the chaos experiment's fault-rate sweep
	// (gillis-bench -faults); empty means the default sweep.
	FaultRates []float64

	perfmdl map[string]*perf.Model
	units   map[string][]*partition.Unit
}

// NewContext creates a benchmark context with the paper's defaults.
func NewContext(seed int64) *Context {
	return &Context{
		Seed:    seed,
		Queries: 100,
		perfmdl: make(map[string]*perf.Model),
		units:   make(map[string][]*partition.Unit),
	}
}

// Model returns (building on first use) the fitted performance model for a
// platform ("lambda", "gcf", "knix").
func (c *Context) Model(platformName string) (*perf.Model, error) {
	if m, ok := c.perfmdl[platformName]; ok {
		return m, nil
	}
	cfg, err := platform.ByName(platformName)
	if err != nil {
		return nil, err
	}
	m, err := perf.Build(cfg, c.Seed, 2, 300)
	if err != nil {
		return nil, err
	}
	c.perfmdl[platformName] = m
	return m, nil
}

// Units returns (linearizing on first use) a zoo model's unit chain.
func (c *Context) Units(model string) ([]*partition.Unit, error) {
	if u, ok := c.units[model]; ok {
		return u, nil
	}
	g, err := models.ByName(model)
	if err != nil {
		return nil, err
	}
	u, err := partition.Linearize(g)
	if err != nil {
		return nil, err
	}
	c.units[model] = u
	return u, nil
}

// queries returns the per-measurement query count, trimmed in Quick mode.
func (c *Context) queries() int {
	n := c.Queries
	if n <= 0 {
		n = 100
	}
	if c.Quick && n > 20 {
		n = 20
	}
	return n
}

// Measurement summarizes one measured deployment.
type Measurement struct {
	MeanMs   float64
	P99Ms    float64
	StdMs    float64
	MeanCost float64 // mean billed ms per query
	OOM      bool
	Err      string
}

// serveWarm is the protocol every latency figure measures by (§II-B): deploy
// on a fresh platform, prewarm, serve warmups queries that are not reported
// and then n that are, handing each of those — its result, its trace (nil
// unless traced), its latency on the client's clock and its error — to each.
// A failed warm-up, or an error each returns, ends the run. The platform is
// returned for the totals read after the drain.
func serveWarm(cfg platform.Config, seed int64, deploy func(*platform.Platform) (*runtime.Deployment, error), traced bool,
	warmups, n int, each func(r runtime.Result, tr *trace.Trace, clientMs float64, err error) error) (*platform.Platform, error) {
	return platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := deploy(p)
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		for i := -warmups; i < n; i++ {
			before := proc.Now()
			r, tr, err := d.ServeBatch(proc, nil, 1, traced)
			if i >= 0 {
				err = each(r, tr, float64(proc.Now()-before)/1e6, err)
			}
			if err != nil {
				return err
			}
		}
		return nil
	})
}

// planOn is serveWarm's deploy for one plan served ShapeOnly.
func planOn(units []*partition.Unit, plan *partition.Plan, opts ...runtime.DeployOption) func(*platform.Platform) (*runtime.Deployment, error) {
	return func(p *platform.Platform) (*runtime.Deployment, error) {
		return runtime.Deploy(p, units, plan, runtime.ShapeOnly, opts...)
	}
}

// replay is one gateway replay on a fresh platform. deploy builds the backend
// — a deployment, a switcher, a mesh — and may complete the gateway's
// configuration with what only exists once the backend does (the mesh as
// Router, a controller bound to the switcher).
func replay(cfg platform.Config, seed int64, deploy func(*platform.Platform, *gateway.Config) (gateway.Backend, error),
	arrivals []time.Duration, gcfg gateway.Config) (*gateway.LoadReport, []gateway.Outcome, error) {
	b, err := deploy(platform.New(simnet.NewEnv(), cfg, seed), &gcfg)
	if err != nil {
		return nil, nil, err
	}
	return gateway.Run(b, arrivals, gcfg)
}

// deployPlan is replay's deploy for one plan served ShapeOnly.
func deployPlan(units []*partition.Unit, plan *partition.Plan) func(*platform.Platform, *gateway.Config) (gateway.Backend, error) {
	return func(p *platform.Platform, _ *gateway.Config) (gateway.Backend, error) {
		return runtime.Deploy(p, units, plan, runtime.ShapeOnly)
	}
}

// measurePlan serves n warm queries after one warm-up and returns latency and
// cost statistics. A deployment that exceeds the memory budget is reported as
// OOM, like the paper's failed configurations.
func measurePlan(cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan, n int) Measurement {
	var lats, costs []float64
	_, err := serveWarm(cfg, seed, planOn(units, plan), false, 1, n, func(r runtime.Result, _ *trace.Trace, _ float64, err error) error {
		if err != nil {
			return err
		}
		lats = append(lats, r.LatencyMs)
		costs = append(costs, float64(r.BilledMs))
		return nil
	})
	if err != nil {
		return Measurement{OOM: errors.Is(err, runtime.ErrOOM), Err: err.Error()}
	}
	return Measurement{
		MeanMs:   stats.Mean(lats),
		P99Ms:    stats.Percentile(lats, 99),
		StdMs:    stats.Std(lats),
		MeanCost: stats.Mean(costs),
	}
}

// measureDefault measures single-function (Default) serving.
func measureDefault(cfg platform.Config, seed int64, units []*partition.Unit, n int) Measurement {
	return measurePlan(cfg, seed, units, partition.DefaultPlan("default", units), n)
}

// BaselineJSON renders a report in the form of the BENCH_*.json baselines:
// indented JSON ending in a newline.
func BaselineJSON(report any) ([]byte, error) {
	b, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// fmtMs renders a latency cell, using "OOM" for failed configurations.
func fmtMs(m Measurement) string {
	if m.OOM {
		return "OOM"
	}
	if m.Err != "" {
		return "ERR"
	}
	return fmt.Sprintf("%.0f", m.MeanMs)
}
