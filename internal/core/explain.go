package core

import (
	"fmt"
	"strings"

	"gillis/internal/partition"
	"gillis/internal/perf"
)

// Explain renders a per-group latency/cost breakdown of a plan under the
// performance model — the "why is this plan shaped like this" view the CLI
// exposes with `gillis partition -explain`.
func Explain(m *perf.Model, units []*partition.Unit, plan *partition.Plan) (string, error) {
	if err := validateInputs(m, units); err != nil {
		return "", err
	}
	t := m.Table(units, 1)
	pred, err := t.Plan(plan)
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan breakdown for %s (predicted %.0f ms, %d billed ms/query):\n",
		plan.Model, pred.LatencyMs, pred.BilledMs)
	sb.WriteString("group | units |     option | place   | latency | upload | overhead | download | workers-busy | weights/part\n")
	for gi, gp := range plan.Groups {
		g := pred.Groups[gi]
		ext, err := t.Extent(gp.First, gp.Last, gp.Option)
		if err != nil {
			return "", err
		}
		place := "workers"
		if gp.OnMaster {
			if gp.Option.Parts == 1 {
				place = "master"
			} else {
				place = "mixed"
			}
		}
		var workerBusy float64
		for _, w := range g.WorkerMs {
			workerBusy += w
		}
		fmt.Fprintf(&sb, "%5d | %2d..%2d | %10s | %-7s | %5.0fms | %4.0fms | %6.0fms | %6.0fms | %10.0fms | %6.0f MB\n",
			gi+1, gp.First, gp.Last, gp.Option.String(), place,
			g.LatencyMs, g.UploadMs, g.OverheadMs, g.DownloadMs, workerBusy, float64(ext.WeightBytes)/1e6)
	}
	if pred.OOM {
		fmt.Fprintf(&sb, "WARNING: plan exceeds memory budget: %s\n", pred.OOMReason)
	}
	tail, err := m.PredictPlanTail(units, plan, 1000)
	if err == nil {
		fmt.Fprintf(&sb, "latency distribution: p50 %.0f ms, p95 %.0f ms, p99 %.0f ms\n",
			tail.P50Ms, tail.P95Ms, tail.P99Ms)
	}
	return sb.String(), nil
}
