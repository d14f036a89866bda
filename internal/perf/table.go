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
	"slices"

	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
)

// Table is the one place the model prices a layer group: Algorithm 1's
// latency oracle, asked about the same group over and over by a planning
// run. It belongs to one run over one unit chain at one batch size and takes
// no lock. Each price is computed once: a unit's compute time, a group's
// extent and monolithic compute time per (first, last, option), its
// prediction per placement, and the overhead draws of a fork-join round per
// fan-out.
type Table struct {
	m     *Model
	units []*partition.Unit
	batch int
	costs map[costKey]groupCost
	preds map[partition.GroupPlan]GroupPrediction
	draws map[int][]float64
	// unitMs[i] is units[i]'s UnitTimeMs once unitPriced[i] is set. A unit
	// is priced the first time a group holding it is, so a unit of a kind
	// the model cannot price fails only the groups that hold it.
	unitMs     []float64
	unitPriced []bool
	// stream holds the draws of rng, the overhead stream every fan-out
	// reads a prefix of; maxes holds forkJoinMs's running maximum of each
	// trial.
	rng    *rand.Rand
	stream []float64
	maxes  []float64
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
		m:          m,
		units:      units,
		batch:      batch,
		costs:      make(map[costKey]groupCost),
		preds:      make(map[partition.GroupPlan]GroupPrediction),
		draws:      make(map[int][]float64),
		unitMs:     make([]float64, len(units)),
		unitPriced: make([]bool, len(units)),
	}
}

// groupComputeMs is Model.GroupComputeMs off the table's unit prices: the
// same sum in the same unit order, so the same bits.
func (t *Table) groupComputeMs(first, last int) (float64, error) {
	var total float64
	for i := first; i <= last; i++ {
		if !t.unitPriced[i] {
			ms, err := t.m.UnitTimeMs(t.units[i])
			if err != nil {
				return 0, err
			}
			t.unitMs[i], t.unitPriced[i] = ms, true
		}
		total += t.unitMs[i]
	}
	return total, nil
}

func (t *Table) cost(first, last int, opt partition.Option) (groupCost, error) {
	k := costKey{first, last, opt}
	if c, ok := t.costs[k]; ok {
		return c, nil
	}
	if opt.Dim == partition.DimSpatial {
		return t.spatialCosts(first, last, opt)
	}
	ext, err := partition.GroupExtent(t.units, first, last, opt)
	if err != nil {
		return groupCost{}, err
	}
	baseMs, err := t.groupComputeMs(first, last)
	if err != nil {
		return groupCost{}, err
	}
	c := groupCost{ext: ext, baseMs: baseMs}
	t.costs[k] = c
	return c, nil
}

// spatialCosts prices every group under opt that ends at last and starts
// at first or after it, from one backward walk (partition.SpatialExtents),
// and returns the cost of units[first..last]. The DP asks for the groups
// ending at a unit longest first, so its first spatial miss there walks
// the farthest and prices all the rest.
func (t *Table) spatialCosts(first, last int, opt partition.Option) (groupCost, error) {
	// A unit the model cannot price fails its group and every longer one,
	// which the walk reaches after it.
	var priceErr error
	err := partition.SpatialExtents(t.units, first, last, opt.Parts, func(f int, ext partition.Extent) {
		if priceErr != nil {
			return
		}
		baseMs, err := t.groupComputeMs(f, last)
		if err != nil {
			priceErr = err
			return
		}
		t.costs[costKey{f, last, opt}] = groupCost{ext: ext, baseMs: baseMs}
	})
	if err == nil {
		err = priceErr
	}
	if err != nil {
		return groupCost{}, err
	}
	return t.costs[costKey{first, last, opt}], nil
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

// forkJoinTrials is the number of Monte Carlo trials behind every fork-join
// price.
const forkJoinTrials = 1200

// negInf is where every trial's running maximum starts: copying it is a
// vector move, and a loop storing −Inf measured as slow as the fold.
var negInf = func() (a [forkJoinTrials]float64) {
	for i := range a {
		a[i] = math.Inf(-1)
	}
	return a
}()

// forkJoinMs estimates E[max_i(offset_i + overhead_i + comp_i)] where
// overhead_i are i.i.d. draws from the fitted EMG distribution — the
// generalization of the n-th order statistic to workers with deterministic
// start offsets. A fixed-seed Monte Carlo keeps the prediction
// deterministic: every round of fan-out n reads the same trials × n draws,
// the first of one seeded stream a table draws once, in trial order, and
// stored worker-major per fan-out, so worker i's draws d[i*trials:][:trials]
// are one contiguous run.
//
// The walk starts every trial's running maximum at −Inf and folds the
// workers in, two to a pass (nn.FoldMax2, four trials to an instruction
// where the CPU has AVX), an odd fan-out's last worker twice, which changes
// nothing. Each trial meets its workers' sums in worker order and keeps a
// sum only if it is larger, as the trial-major walk does; then the maxima
// are summed in trial order. That is the trial-major walk's sum bit for bit,
// and the builtin max's too: on these values the two do not differ, since
// they hold no NaN (finite draws, offsets and compute times) and no −0
// (offset + draw + comp is −0 only if all three are, and an offset is a sum
// of non-negative upload times starting from +0).
// TestForkJoinMsMatchesTrialMajor holds it to the trial-major walk.
func (t *Table) forkJoinMs(offsets, comps []float64) float64 {
	const trials = forkJoinTrials
	n := len(offsets)
	d, ok := t.draws[n]
	if !ok {
		if t.rng == nil {
			t.rng = rand.New(rand.NewSource(0x6f725374))
		}
		if more := trials*n - len(t.stream); more > 0 {
			t.stream = slices.Grow(t.stream, more)
			for ; more > 0; more-- {
				t.stream = append(t.stream, t.m.comm.Sample(t.rng))
			}
		}
		d = make([]float64, trials*n)
		for tr := 0; tr < trials; tr++ {
			for i, v := range t.stream[tr*n:][:n] {
				d[i*trials+tr] = v
			}
		}
		t.draws[n] = d
	}
	if t.maxes == nil {
		t.maxes = make([]float64, trials)
	}
	w := t.maxes
	copy(w, negInf[:])
	for i := 0; i < n; i += 2 {
		j := min(i+1, n-1)
		nn.FoldMax2(w, d[i*trials:], d[j*trials:], offsets[i], comps[i], offsets[j], comps[j])
	}
	var sum float64
	for _, v := range w {
		sum += v
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
