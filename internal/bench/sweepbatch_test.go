package bench

import (
	"strings"
	"testing"
)

// TestSweepBatchThroughputPin is the acceptance check for the batching
// figure: at the largest batch size the throughput-optimal planner must
// attain at least the queries-per-billed-time of the latency-optimal
// planner, both as predicted by the perf model and as replayed through
// the batching gateway.
func TestSweepBatchThroughputPin(t *testing.T) {
	report, err := SweepBatch(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 3 batch sizes x 1 rate x 2 planners.
	if len(report.Rows) != 6 {
		t.Fatalf("quick sweep should be 3 batches x 1 rate x 2 planners, got %d rows", len(report.Rows))
	}
	maxBatch := 0
	for _, row := range report.Rows {
		maxBatch = max(maxBatch, row.Batch)
	}
	if maxBatch < 2 {
		t.Fatalf("sweep has no real batching, max batch %d", maxBatch)
	}
	var lat, thr *SweepBatchRow
	for i, row := range report.Rows {
		if row.Batch != maxBatch || row.RateQPS != 8 {
			continue
		}
		switch row.Planner {
		case "latency-opt":
			lat = &report.Rows[i]
		case "throughput-opt":
			thr = &report.Rows[i]
		}
	}
	if lat == nil || thr == nil {
		t.Fatalf("missing rows at batch %d: %+v", maxBatch, report.Rows)
	}
	if thr.PredictedQP1K < lat.PredictedQP1K {
		t.Errorf("predicted objective regressed: throughput-opt %.3f < latency-opt %.3f q/1k-billed-ms",
			thr.PredictedQP1K, lat.PredictedQP1K)
	}
	if thr.QueriesPer1KBilledMs < lat.QueriesPer1KBilledMs {
		t.Errorf("replayed objective regressed: throughput-opt %.3f < latency-opt %.3f q/1k-billed-ms",
			thr.QueriesPer1KBilledMs, lat.QueriesPer1KBilledMs)
	}
	for _, row := range report.Rows {
		if row.Report == nil || row.Report.Served == 0 {
			t.Fatalf("batch %d/%s served nothing", row.Batch, row.Planner)
		}
		if row.Batch > 1 && row.Report.Batches == 0 {
			t.Errorf("batch %d/%s replay formed no batches", row.Batch, row.Planner)
		}
		if row.Batch == 1 && row.Report.Batches != 0 {
			t.Errorf("batch-1 row must use the unbatched path, formed %d batches", row.Report.Batches)
		}
	}
	if !strings.Contains(report.Table(), "throughput-opt") {
		t.Error("table missing planner rows")
	}
	js, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "\"queries_per_1k_billed_ms\"") || !strings.Contains(string(js), "\"planner\"") {
		t.Fatalf("baseline JSON malformed:\n%s", js)
	}
}

// TestSweepBatchDeterministic pins the baseline property: the same context
// reproduces byte-identical JSON.
func TestSweepBatchDeterministic(t *testing.T) {
	a, err := SweepBatch(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepBatch(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if string(ja) != string(jb) {
		t.Fatal("SweepBatch is not deterministic for a fixed seed")
	}
}
