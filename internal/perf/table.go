package perf

// Prediction tables and batch-parameterized prediction (DESIGN.md §13). A
// batched fork-join round moves batch× the activations and does batch× the
// compute, but pays the per-round invocation overheads — request fan-out and
// the EMG communication draws — once. The planner uses these predictions to
// choose a plan *for* a batch size: deeper parallelism amortizes better as
// the compute share grows, so the throughput-optimal plan can differ from the
// latency-optimal one.

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/partition"
	"gillis/internal/platform"
)

// Table is the one place the model prices a layer group: Algorithm 1's
// latency oracle, asked about the same group over and over by a planning
// run. It belongs to one run over one unit chain at one batch size and takes
// no lock. Each price is computed once: a group's extent and monolithic
// compute time per (first, last, option), its prediction per placement, and
// the overhead draws of a fork-join round per fan-out.
type Table struct {
	m     *Model
	units []*partition.Unit
	batch int
	costs map[costKey]groupCost
	preds map[partition.GroupPlan]GroupPrediction
	draws map[int][]float64
}

type costKey struct {
	first, last int
	opt         partition.Option
}

// groupCost is what a group's predictions share across placements.
type groupCost struct {
	ext    partition.Extent
	baseMs float64 // monolithic compute time of one query
}

// Table returns an empty prediction table for units at batch queries per
// fork-join round.
func (m *Model) Table(units []*partition.Unit, batch int) *Table {
	return &Table{
		m:     m,
		units: units,
		batch: batch,
		costs: make(map[costKey]groupCost),
		preds: make(map[partition.GroupPlan]GroupPrediction),
		draws: make(map[int][]float64),
	}
}

func (t *Table) cost(first, last int, opt partition.Option) (groupCost, error) {
	k := costKey{first, last, opt}
	if c, ok := t.costs[k]; ok {
		return c, nil
	}
	ext, err := partition.GroupExtent(t.units, first, last, opt)
	if err != nil {
		return groupCost{}, err
	}
	baseMs, err := t.m.GroupComputeMs(t.units, first, last)
	if err != nil {
		return groupCost{}, err
	}
	c := groupCost{ext: ext, baseMs: baseMs}
	t.costs[k] = c
	return c, nil
}

// Extent returns the extent of units[first..last] under opt.
func (t *Table) Extent(first, last int, opt partition.Option) (partition.Extent, error) {
	c, err := t.cost(first, last, opt)
	return c.ext, err
}

// Group predicts one group plan at the table's batch size: compute and
// payload bytes scale with the batch, while the per-round invocation
// overheads (request fan-out, EMG cold-path draws) are paid once — the
// amortization cross-query batching buys. Every batch scaling is a
// multiplication by float64(batch) or int64(batch), so batch 1 is the
// unbatched prediction bit for bit.
func (t *Table) Group(gp partition.GroupPlan) (GroupPrediction, error) {
	if p, ok := t.preds[gp]; ok {
		return p, nil
	}
	if t.batch < 1 {
		return GroupPrediction{}, fmt.Errorf("perf: batch must be positive, got %d", t.batch)
	}
	c, err := t.cost(gp.First, gp.Last, gp.Option)
	if err != nil {
		return GroupPrediction{}, err
	}
	m := t.m
	var pred GroupPrediction
	budget := int64(m.cfg.WeightBudgetMB) * 1e6
	if need := c.ext.ResidentBytes(t.batch); need > budget {
		pred.OOM = true
		pred.OOMReason = fmt.Sprintf("partition weights+activations %d MB exceed budget %d MB", need/1e6, budget/1e6)
	}
	bi := int64(t.batch)
	r := m.round(c.ext, gp, c.baseMs*float64(t.batch), bi)
	pred.WorkerMs = r.comps
	pred.UploadMs, pred.DownloadMs = r.upMs, r.downMs
	switch {
	case len(r.comps) == 0: // whole group on the master
		pred.LatencyMs = r.masterMs
	case gp.Option.Dim == partition.DimNone:
		// One worker: its one overhead is priced at the fitted mean.
		pred.LatencyMs = r.upMs + m.comm.Mean() + r.comps[0] + r.downMs
	default:
		// Fork-join completion: the expected maximum over workers of
		// (upload prefix + EMG overhead + compute), by order statistics
		// over the fitted distribution with deterministic offsets; the
		// master computes its own partition concurrently with the uploads.
		workerSide := t.forkJoinMs(r.offsets, r.comps) + r.downMs
		pred.LatencyMs = max(r.masterMs, r.upMs, workerSide)
		// Reassembly (memory-bandwidth bound concatenation).
		if m.cfg.MemGBps > 0 {
			pred.LatencyMs += float64(c.ext.OutBytesTotal*bi) / 1e9 / m.cfg.MemGBps * 1000
		}
	}
	t.preds[gp] = pred
	return pred, nil
}

// forkJoinMs estimates E[max_i(offset_i + overhead_i + comp_i)] where
// overhead_i are i.i.d. draws from the fitted EMG distribution — the
// generalization of the n-th order statistic to workers with deterministic
// start offsets. A fixed-seed Monte Carlo keeps the prediction
// deterministic: every round of fan-out n reads the same trials × n draws,
// made once per table, trial-major.
func (t *Table) forkJoinMs(offsets, comps []float64) float64 {
	const trials = 1200
	n := len(offsets)
	d, ok := t.draws[n]
	if !ok {
		rng := rand.New(rand.NewSource(0x6f725374))
		d = make([]float64, trials*n)
		for i := range d {
			d[i] = t.m.comm.Sample(rng)
		}
		t.draws[n] = d
	}
	// Four trials per pass over the workers (trials is a multiple of four),
	// each with its own running maximum; the sum still takes them in trial
	// order.
	var sum float64
	for tr := 0; tr < trials; tr += 4 {
		d0, d1, d2, d3 := d[tr*n:][:n], d[(tr+1)*n:][:n], d[(tr+2)*n:][:n], d[(tr+3)*n:][:n]
		w0, w1, w2, w3 := math.Inf(-1), math.Inf(-1), math.Inf(-1), math.Inf(-1)
		for i, off := range offsets {
			c := comps[i]
			if v := off + d0[i] + c; v > w0 {
				w0 = v
			}
			if v := off + d1[i] + c; v > w1 {
				w1 = v
			}
			if v := off + d2[i] + c; v > w2 {
				w2 = v
			}
			if v := off + d3[i] + c; v > w3 {
				w3 = v
			}
		}
		sum += w0
		sum += w1
		sum += w2
		sum += w3
	}
	return sum / trials
}

// BatchPrediction is a plan prediction at an explicit batch size, extended
// with the throughput objectives the planner ranks by.
type BatchPrediction struct {
	PlanPrediction
	// Batch is the queries per fork-join round the prediction models.
	Batch int
	// CostPerQueryMs is the billed milliseconds attributed to each query:
	// BilledMs / Batch.
	CostPerQueryMs float64
	// QueriesPer1KBilledMs is the throughput-per-cost objective
	// (queries/sec/$ with billed time as the cost proxy): queries served
	// per thousand billed milliseconds.
	QueriesPer1KBilledMs float64
}

// Plan predicts a full plan serving batches of the table's size in every
// fork-join round, checks both the per-worker and the cumulative master
// memory budgets, and derives the throughput objectives.
func (t *Table) Plan(plan *partition.Plan) (BatchPrediction, error) {
	if err := plan.Validate(t.units); err != nil {
		return BatchPrediction{}, err
	}
	cfg := t.m.cfg
	budget := int64(cfg.WeightBudgetMB) * 1e6
	out := BatchPrediction{Batch: t.batch}
	var masterBytes int64
	for _, gp := range plan.Groups {
		pred, err := t.Group(gp)
		if err != nil {
			return BatchPrediction{}, err
		}
		out.Groups = append(out.Groups, pred)
		out.LatencyMs += pred.LatencyMs
		if pred.OOM && !out.OOM {
			out.OOM, out.OOMReason = true, pred.OOMReason
		}
		if gp.OnMaster {
			masterBytes += t.costs[costKey{gp.First, gp.Last, gp.Option}].ext.WeightBytes // priced by Group
		}
		for _, wms := range pred.WorkerMs {
			out.BilledMs += platform.Billed(wms, cfg.BillingGranMs)
		}
	}
	if masterBytes > budget && !out.OOM {
		out.OOM = true
		out.OOMReason = fmt.Sprintf("master resident weights %d MB exceed budget %d MB", masterBytes/1e6, budget/1e6)
	}
	out.BilledMs += platform.Billed(out.LatencyMs, cfg.BillingGranMs)
	if out.BilledMs > 0 {
		out.CostPerQueryMs = float64(out.BilledMs) / float64(t.batch)
		out.QueriesPer1KBilledMs = float64(t.batch) * 1000 / float64(out.BilledMs)
	}
	return out, nil
}
