package perf

// Batch-parameterized prediction (DESIGN.md §13). A batched fork-join round
// moves batch× the activations and does batch× the compute, but pays the
// per-round invocation overheads — request fan-out and the EMG
// communication draws — once. The planner uses these predictions to choose
// a plan *for* a batch size: deeper parallelism amortizes better as the
// compute share grows, so the throughput-optimal plan can differ from the
// latency-optimal one.

import (
	"fmt"

	"gillis/internal/partition"
)

// BatchPrediction is a plan prediction at an explicit batch size, extended
// with the throughput objectives the planner ranks by.
type BatchPrediction struct {
	PlanPrediction
	// Batch is the queries per fork-join round the prediction models.
	Batch int
	// QPS is the modeled steady-state throughput: Batch queries per
	// LatencyMs round.
	QPS float64
	// CostPerQueryMs is the billed milliseconds attributed to each query:
	// BilledMs / Batch.
	CostPerQueryMs float64
	// QueriesPer1KBilledMs is the throughput-per-cost objective
	// (queries/sec/$ with billed time as the cost proxy): queries served
	// per thousand billed milliseconds.
	QueriesPer1KBilledMs float64
}

// PredictGroupBatch is PredictGroup at an explicit batch size; batch 1
// reproduces PredictGroup bit-for-bit.
func (m *Model) PredictGroupBatch(units []*partition.Unit, gp partition.GroupPlan, batch int) (GroupPrediction, error) {
	pred, _, err := m.predictGroupBatch(units, gp, batch)
	return pred, err
}

// PredictPlanBatch estimates a full plan serving batches of the given size
// and derives the throughput objectives. Batch 1 reproduces PredictPlan
// bit-for-bit.
func (m *Model) PredictPlanBatch(units []*partition.Unit, plan *partition.Plan, batch int) (BatchPrediction, error) {
	if batch < 1 {
		return BatchPrediction{}, fmt.Errorf("perf: batch must be positive, got %d", batch)
	}
	pp, err := m.predictPlanBatch(units, plan, batch)
	if err != nil {
		return BatchPrediction{}, err
	}
	out := BatchPrediction{PlanPrediction: pp, Batch: batch}
	if pp.LatencyMs > 0 {
		out.QPS = float64(batch) / (pp.LatencyMs / 1000)
	}
	if pp.BilledMs > 0 {
		out.CostPerQueryMs = float64(pp.BilledMs) / float64(batch)
		out.QueriesPer1KBilledMs = float64(batch) * 1000 / float64(pp.BilledMs)
	}
	return out, nil
}
