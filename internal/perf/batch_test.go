package perf

import (
	"testing"

	"gillis/internal/partition"
)

func batchTestPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "vgg11", Groups: []partition.GroupPlan{
		{First: 0, Last: 1, Option: partition.Option{Dim: partition.DimSpatial, Parts: 4}},
		{First: 2, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

// TestPredictPlanBatchOneBitExact pins the batch-1 contract: one table at
// batch 1, pricing a parallel plan and the Default baseline in turn, answers
// PredictPlan bit for bit, and its objectives are those of a single query.
func TestPredictPlanBatchOneBitExact(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg11")
	tab := m.Table(units, 1)
	for pi, plan := range []*partition.Plan{batchTestPlan(t, units), partition.DefaultPlan("vgg11", units)} {
		want, err := m.PredictPlan(units, plan)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tab.Plan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if got.LatencyMs != want.LatencyMs || got.BilledMs != want.BilledMs || got.OOM != want.OOM {
			t.Fatalf("plan %d: batch-1 prediction diverged: %+v vs %+v", pi, got.PlanPrediction, want)
		}
		for gi := range want.Groups {
			w, g := want.Groups[gi], got.Groups[gi]
			if g.LatencyMs != w.LatencyMs || g.UploadMs != w.UploadMs ||
				g.OverheadMs != w.OverheadMs || g.DownloadMs != w.DownloadMs {
				t.Fatalf("plan %d group %d: batch-1 group prediction diverged: %+v vs %+v", pi, gi, g, w)
			}
		}
		if got.Batch != 1 || got.CostPerQueryMs != float64(want.BilledMs) {
			t.Fatalf("plan %d: batch-1 objectives wrong: %+v", pi, got)
		}
	}
}

// TestBatchAmortizesOverheads pins the economics: growing the batch must
// raise the modeled latency sublinearly (the per-round overheads are paid
// once), which makes the per-query cost fall and the throughput-per-cost
// objective rise monotonically over {1,2,4,8} — until a huge batch blows
// the activation budget (activations scale with the batch, weights do not).
func TestBatchAmortizesOverheads(t *testing.T) {
	m := lambda(t)
	units := unitsOf(t, "vgg11")
	plan := batchTestPlan(t, units)
	var prev BatchPrediction
	for i, batch := range []int{1, 2, 4, 8} {
		bp, err := m.Table(units, batch).Plan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if bp.OOM {
			t.Fatalf("batch %d OOM: %s", batch, bp.OOMReason)
		}
		if i > 0 {
			ratio := float64(batch) / float64(prev.Batch)
			if bp.LatencyMs >= prev.LatencyMs*ratio {
				t.Errorf("batch %d latency %.2f not sublinear vs batch %d latency %.2f",
					batch, bp.LatencyMs, prev.Batch, prev.LatencyMs)
			}
			if bp.CostPerQueryMs >= prev.CostPerQueryMs {
				t.Errorf("batch %d cost/query %.2f did not fall from %.2f",
					batch, bp.CostPerQueryMs, prev.CostPerQueryMs)
			}
			if bp.QueriesPer1KBilledMs <= prev.QueriesPer1KBilledMs {
				t.Errorf("batch %d queries/1k-billed-ms %.4f did not rise from %.4f",
					batch, bp.QueriesPer1KBilledMs, prev.QueriesPer1KBilledMs)
			}
			if bp.QPS <= prev.QPS {
				t.Errorf("batch %d QPS %.3f did not rise from %.3f", batch, bp.QPS, prev.QPS)
			}
		}
		prev = bp
	}
	bp, err := m.Table(units, 1<<20).Plan(plan)
	if err != nil {
		t.Fatal(err)
	}
	if !bp.OOM {
		t.Error("a million-query batch should exceed the activation budget")
	}
}
