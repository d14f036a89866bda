package bench

import (
	"fmt"
	"strings"

	"gillis/internal/core"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/trace"
)

// TraceReport is one traced fork-join query: the Chrome trace-event JSON
// (gillis-bench -trace-json) plus a printable summary.
type TraceReport struct {
	Model     string
	Platform  string
	FaultRate float64
	LatencyMs float64
	BilledMs  int64
	Spans     int
	Faulted   int
	Resil     runtime.Resilience

	// Chrome is the trace in Chrome trace-event JSON (chrome://tracing,
	// Perfetto).
	Chrome []byte
}

// QueryTrace serves one traced query of the chaos workload — the paper's
// main VGG-16 model on Lambda under the given fault rate, with resilient
// serving — and exports its span tree. The platform seed is ctx.Seed, so the
// same seed reproduces the identical trace byte for byte.
func QueryTrace(ctx *Context, faultRate float64) (*TraceReport, error) {
	units, err := ctx.Units(chaosModel)
	if err != nil {
		return nil, err
	}
	pm, err := ctx.Model("lambda")
	if err != nil {
		return nil, err
	}
	plan, _, err := core.LatencyOptimal(pm, units, core.Config{})
	if err != nil {
		return nil, err
	}
	cfg := pm.Platform()
	cfg.Faults = chaosProfile(faultRate)

	var (
		res    runtime.Result
		tr     *trace.Trace
		prefix string
	)
	_, err = platform.Run(cfg, ctx.Seed, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly, resilientOpts()...)
		if err != nil {
			return err
		}
		prefix = d.Prefix()
		if err := d.Prewarm(); err != nil {
			return err
		}
		res, tr, err = d.ServeTraced(proc, nil)
		return err
	})
	if err != nil {
		return nil, err
	}

	// Strip the process-order-dependent deployment prefix from function
	// names, so the same seed yields byte-identical trace files.
	ren := func(s string) string { return strings.ReplaceAll(s, prefix, chaosModel) }
	rep := &TraceReport{
		Model:     chaosModel,
		Platform:  "lambda",
		FaultRate: faultRate,
		LatencyMs: round3(res.LatencyMs),
		BilledMs:  res.BilledMs,
		Spans:     tr.Len(),
		Resil:     res.Resilience,
		Chrome:    tr.ChromeJSON(ren),
	}
	for _, s := range tr.Spans() {
		if s.Kind == trace.KindInvoke && s.Err != "" {
			rep.Faulted++
		}
	}
	return rep, nil
}

// Table renders the traced query in the figure runners' tabular style.
func (r *TraceReport) Table() string {
	return fmt.Sprintf(
		"Traced query: %s on %s (fault rate %.2f)\n"+
			"  latency %.1f ms, billed %d ms, %d spans (%d faulted invocations)\n"+
			"  resilience: %d retries, %d hedges (%d won), %d fallbacks, %d extra billed ms",
		r.Model, r.Platform, r.FaultRate,
		r.LatencyMs, r.BilledMs, r.Spans, r.Faulted,
		r.Resil.Retries, r.Resil.Hedges, r.Resil.HedgesWon, r.Resil.Fallbacks, r.Resil.ExtraBilledMs)
}
