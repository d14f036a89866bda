package bench

import (
	"fmt"
	"math"
	"strings"

	"gillis/internal/core"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/stats"
)

// Fig15Runtime is one model-runtime accuracy point (top-left panel).
type Fig15Runtime struct {
	Model       string
	PredictedMs float64
	ActualMs    float64
	ErrPct      float64
}

// Fig15Comm is one concurrent-delay accuracy point (top-right panel).
type Fig15Comm struct {
	Workers     int
	PredictedMs float64
	ActualMs    float64
	ErrPct      float64
}

// Fig15E2E is one end-to-end accuracy point (bottom panel).
type Fig15E2E struct {
	Model       string
	PredictedMs float64
	ActualMs    float64
	ErrPct      float64
}

// Fig15Result reproduces Fig. 15 (§V-E): performance-model accuracy. The
// paper reports <=9% error on model runtimes, ~6.3% average error on
// concurrent communication delays, and <=6% on end-to-end latencies.
type Fig15Result struct {
	Runtime []Fig15Runtime
	Comm    []Fig15Comm
	E2E     []Fig15E2E
}

// Fig15 runs all three panels on Lambda.
func Fig15(ctx *Context) (*Fig15Result, error) {
	m, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	cfg := m.Platform()
	res := &Fig15Result{}

	// Panel 1: single-function model runtime.
	runtimeModels := []string{"vgg19", "wrn50-3", "rnn3"}
	if ctx.Quick {
		runtimeModels = []string{"vgg19"}
	}
	for i, name := range runtimeModels {
		units, err := ctx.Units(name)
		if err != nil {
			return nil, err
		}
		pred, err := m.GroupComputeMs(units, 0, len(units)-1)
		if err != nil {
			return nil, err
		}
		meas := measureDefault(cfg, ctx.Seed+int64(i), units, ctx.queries())
		if meas.Err != "" {
			return nil, fmt.Errorf("bench: fig15 %s: %s", name, meas.Err)
		}
		res.Runtime = append(res.Runtime, Fig15Runtime{
			Model: name, PredictedMs: pred, ActualMs: meas.MeanMs,
			ErrPct: 100 * math.Abs(pred-meas.MeanMs) / meas.MeanMs,
		})
	}

	// Panel 2: maximum delay of n concurrent worker communications.
	workerCounts := []int{1, 2, 4, 8, 16}
	if ctx.Quick {
		workerCounts = []int{1, 8}
	}
	for _, n := range workerCounts {
		actual, err := measureMaxOverhead(cfg, ctx.Seed+int64(n)*3, n, ctx.queries())
		if err != nil {
			return nil, err
		}
		pred := m.MaxCommMs(n)
		res.Comm = append(res.Comm, Fig15Comm{
			Workers: n, PredictedMs: pred, ActualMs: actual,
			ErrPct: 100 * math.Abs(pred-actual) / actual,
		})
	}

	// Panel 3: end-to-end latency under latency-optimal plans.
	e2eModels := []string{"vgg16", "wrn50-3", "rnn6"}
	if ctx.Quick {
		e2eModels = []string{"vgg16"}
	}
	for i, name := range e2eModels {
		units, err := ctx.Units(name)
		if err != nil {
			return nil, err
		}
		plan, pred, err := core.LatencyOptimal(m, units, core.Config{})
		if err != nil {
			return nil, err
		}
		meas := measurePlan(cfg, ctx.Seed+int64(i)*29, units, plan, ctx.queries())
		if meas.Err != "" {
			return nil, fmt.Errorf("bench: fig15 e2e %s: %s", name, meas.Err)
		}
		res.E2E = append(res.E2E, Fig15E2E{
			Model: name, PredictedMs: pred.LatencyMs, ActualMs: meas.MeanMs,
			ErrPct: 100 * math.Abs(pred.LatencyMs-meas.MeanMs) / meas.MeanMs,
		})
	}
	return res, nil
}

// measureMaxOverhead measures the mean maximum invocation overhead across n
// concurrent 1 MB master→worker communications.
func measureMaxOverhead(cfg platform.Config, seed int64, n, rounds int) (float64, error) {
	var maxes []float64
	_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		if err := p.Register("sink", func(ctx *platform.Ctx, in platform.Payload) (platform.Payload, error) {
			return platform.Payload{}, nil
		}); err != nil {
			return err
		}
		if err := p.Prewarm("sink", n); err != nil {
			return err
		}
		err := p.Register("fan", func(ctx *platform.Ctx, in platform.Payload) (platform.Payload, error) {
			promises := make([]*simnet.Promise[platform.InvokeResult], n)
			for i := range promises {
				promises[i] = ctx.InvokeAsync("sink", platform.Payload{Bytes: 1_000_000})
			}
			worst := 0.0
			for _, pr := range promises {
				r, err := pr.Wait(ctx.Proc())
				if err != nil {
					return platform.Payload{}, err
				}
				if r.OverheadMs > worst {
					worst = r.OverheadMs
				}
			}
			maxes = append(maxes, worst)
			return platform.Payload{}, nil
		})
		if err != nil {
			return err
		}
		if err := p.Prewarm("fan", 1); err != nil {
			return err
		}
		for i := 0; i < rounds; i++ {
			if _, err := p.InvokeFrom(proc, "fan", platform.Payload{}); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	return stats.Mean(maxes), nil
}

// Table renders the figure as text.
func (r *Fig15Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig 15. Performance-model prediction accuracy (Lambda)\n")
	sb.WriteString("model runtime:      model | predicted | actual | err%\n")
	for _, row := range r.Runtime {
		fmt.Fprintf(&sb, "%25s | %9.0f | %6.0f | %4.1f\n", row.Model, row.PredictedMs, row.ActualMs, row.ErrPct)
	}
	sb.WriteString("comm delay:       workers | predicted | actual | err%\n")
	for _, row := range r.Comm {
		fmt.Fprintf(&sb, "%25d | %9.1f | %6.1f | %4.1f\n", row.Workers, row.PredictedMs, row.ActualMs, row.ErrPct)
	}
	sb.WriteString("end-to-end:         model | predicted | actual | err%\n")
	for _, row := range r.E2E {
		fmt.Fprintf(&sb, "%25s | %9.0f | %6.0f | %4.1f\n", row.Model, row.PredictedMs, row.ActualMs, row.ErrPct)
	}
	return sb.String()
}
