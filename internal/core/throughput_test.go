package core

import (
	"testing"

	"gillis/internal/partition"
)

// TestThroughputAtLeastLatencyOptimal is the acceptance pin: for a
// batch-heavy workload the throughput-optimal plan must achieve at least
// the queries-per-billed-time of the latency-optimal plan at the same
// batch size (it always considers that plan as a candidate).
func TestThroughputAtLeastLatencyOptimal(t *testing.T) {
	m := lambdaModel(t)
	for _, name := range []string{"vgg11", "resnet50"} {
		units := unitsOf(t, name)
		for _, batch := range []int{1, 4, 8} {
			cfg := Config{Batch: batch}
			latPlan, _, err := LatencyOptimal(m, units, cfg)
			if err != nil {
				t.Fatal(err)
			}
			latBP, err := m.Table(units, batch).Plan(latPlan)
			if err != nil {
				t.Fatal(err)
			}
			thrPlan, thrBP, err := ThroughputOptimal(m, units, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if thrBP.QueriesPer1KBilledMs < latBP.QueriesPer1KBilledMs {
				t.Errorf("%s batch %d: throughput plan %.4f q/1k-billed-ms worse than latency plan %.4f",
					name, batch, thrBP.QueriesPer1KBilledMs, latBP.QueriesPer1KBilledMs)
			}
			if thrBP.Batch != batch || thrBP.OOM {
				t.Errorf("%s batch %d: bad winning prediction %+v", name, batch, thrBP)
			}
			if err := thrPlan.Validate(units); err != nil {
				t.Errorf("%s batch %d: invalid throughput plan: %v", name, batch, err)
			}
		}
	}
}

// TestBatchOneReproducesLatencyOptimal pins backward compatibility: the
// batch dimension defaulted (0) or explicitly 1 must reproduce today's
// latency-optimal plan and prediction bit-exactly.
func TestBatchOneReproducesLatencyOptimal(t *testing.T) {
	m := lambdaModel(t)
	for _, name := range []string{"vgg11", "resnet50"} {
		units := unitsOf(t, name)
		plan0, pred0, err := LatencyOptimal(m, units, Config{})
		if err != nil {
			t.Fatal(err)
		}
		plan1, pred1, err := LatencyOptimal(m, units, Config{Batch: 1})
		if err != nil {
			t.Fatal(err)
		}
		if !samePlan(plan0, plan1) {
			t.Fatalf("%s: batch-1 plan diverged:\n%+v\nvs\n%+v", name, plan1.Groups, plan0.Groups)
		}
		if pred0.LatencyMs != pred1.LatencyMs || pred0.BilledMs != pred1.BilledMs {
			t.Fatalf("%s: batch-1 prediction diverged: %+v vs %+v", name, pred1, pred0)
		}
		// And the batched predictor agrees with the unbatched one on it.
		want, err := m.PredictPlan(units, plan0)
		if err != nil {
			t.Fatal(err)
		}
		if pred0.LatencyMs != want.LatencyMs || pred0.BilledMs != want.BilledMs {
			t.Fatalf("%s: planner prediction %+v diverged from PredictPlan %+v", name, pred0, want)
		}
	}
}

// TestThroughputPrefersAmortization pins the qualitative behavior on a
// model too large for a single function (the paper's motivating case, so
// every feasible plan pays fork-join overheads): at a large batch the
// throughput objective must beat its batch-1 value, because the per-round
// overheads amortize across the batch.
func TestThroughputPrefersAmortization(t *testing.T) {
	m := lambdaModel(t)
	units := unitsOf(t, "wrn34-5")
	_, bp1, err := ThroughputOptimal(m, units, Config{Batch: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, bp8, err := ThroughputOptimal(m, units, Config{Batch: 8})
	if err != nil {
		t.Fatal(err)
	}
	if bp8.QueriesPer1KBilledMs <= bp1.QueriesPer1KBilledMs {
		t.Errorf("batch 8 objective %.4f did not beat batch 1 objective %.4f",
			bp8.QueriesPer1KBilledMs, bp1.QueriesPer1KBilledMs)
	}
}

func samePlan(a, b *partition.Plan) bool {
	if len(a.Groups) != len(b.Groups) {
		return false
	}
	for i := range a.Groups {
		if a.Groups[i] != b.Groups[i] {
			return false
		}
	}
	return true
}
