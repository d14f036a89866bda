// Package perf implements Gillis's performance model (§IV-A): given the
// profiled per-layer-type runtime regressions and the fitted EMG
// communication-delay distribution, it predicts the execution latency and
// billed cost of any layer grouping / parallelization / placement strategy.
// Both partitioning algorithms — the latency-optimal dynamic program and the
// SLO-aware reinforcement learner — search strategies entirely against this
// model, never against the live platform.
package perf

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/profile"
	"gillis/internal/stats"
)

// Model is a fitted performance model for one platform.
type Model struct {
	cfg     platform.Config
	layers  map[nn.Kind][]float64
	comm    stats.EMG
	netMBps float64

	// mu guards the memo because a fitted model is shared by whoever plans
	// concurrently (package core's parallel tests do), not owned by one Env.
	mu          sync.Mutex
	maxCommMemo map[int]float64 // ExpectedMax is a pure function of n
}

// New assembles a model from fitted components.
func New(cfg platform.Config, layers map[nn.Kind][]float64, comm stats.EMG, netMBps float64) (*Model, error) {
	if len(layers) == 0 {
		return nil, fmt.Errorf("perf: no layer models")
	}
	if err := comm.Validate(); err != nil {
		return nil, err
	}
	if netMBps <= 0 {
		return nil, fmt.Errorf("perf: non-positive bandwidth %v", netMBps)
	}
	return &Model{cfg: cfg, layers: layers, comm: comm, netMBps: netMBps, maxCommMemo: make(map[int]float64)}, nil
}

// Build profiles the platform end to end (§IV-A) and returns the fitted
// model. repeats controls layer-profiling repetitions; commRuns the number
// of communication round-trips.
func Build(cfg platform.Config, seed int64, repeats, commRuns int) (*Model, error) {
	samples, err := profile.ProfileLayers(cfg, seed, repeats)
	if err != nil {
		return nil, fmt.Errorf("perf: layer profiling: %w", err)
	}
	layers, err := profile.FitLayerModels(samples)
	if err != nil {
		return nil, err
	}
	comm, err := profile.ProfileComm(cfg, seed+1, commRuns)
	if err != nil {
		return nil, fmt.Errorf("perf: comm profiling: %w", err)
	}
	return New(cfg, layers, comm.Overhead, comm.NetMBps)
}

// Platform returns the platform profile the model was fitted for.
func (m *Model) Platform() platform.Config { return m.cfg }

// Priors rescale a fitted model against live telemetry: the adaptive
// controller observes attained compute times and invocation overheads,
// compares them with the model's predictions, and derives multiplicative
// corrections. Scale 1 means "as fitted"; 2 means "the platform is running
// twice as slow as profiled".
type Priors struct {
	// ComputeScale multiplies every layer-model coefficient (degraded or
	// straggler-heavy platforms inflate compute uniformly to first order).
	ComputeScale float64
	// CommScale linearly rescales the invocation-overhead EMG (Mu and
	// Sigma scale up, Lambda — a rate — scales down), preserving its shape
	// while moving its mean and tail together.
	CommScale float64
}

// WithPriors returns a new model with the priors applied to a copy of this
// model's fitted components; the receiver is unchanged. Planners re-run
// against the returned model to produce plans matched to the observed
// regime.
func (m *Model) WithPriors(pr Priors) (*Model, error) {
	if pr.ComputeScale <= 0 || pr.CommScale <= 0 {
		return nil, fmt.Errorf("perf: non-positive prior scales %+v", pr)
	}
	layers := make(map[nn.Kind][]float64, len(m.layers))
	for k, w := range m.layers {
		sw := make([]float64, len(w))
		for i, c := range w {
			sw[i] = c * pr.ComputeScale
		}
		layers[k] = sw
	}
	comm := stats.EMG{
		Mu:     m.comm.Mu * pr.CommScale,
		Sigma:  m.comm.Sigma * pr.CommScale,
		Lambda: m.comm.Lambda / pr.CommScale,
	}
	return New(m.cfg, layers, comm, m.netMBps)
}

// Comm returns the fitted invocation-overhead distribution.
func (m *Model) Comm() stats.EMG { return m.comm }

// NetMBps returns the fitted payload bandwidth.
func (m *Model) NetMBps() float64 { return m.netMBps }

// OpTimeMs predicts one operator's runtime from its fitted kind model.
func (m *Model) OpTimeMs(op nn.Op, inShapes [][]int) (float64, error) {
	w, ok := m.layers[op.Kind()]
	if !ok {
		return 0, fmt.Errorf("perf: no model for layer kind %s", op.Kind())
	}
	bytes, err := profile.OpBytes(op, inShapes)
	if err != nil {
		return 0, err
	}
	ms := stats.Dot(w, profile.Features(op.FLOPs(inShapes...), bytes))
	if ms < 0 {
		ms = 0
	}
	return ms, nil
}

// UnitTimeMs predicts a unit's full (unpartitioned) compute time by summing
// its operator predictions (§IV-A: "we infer its runtime by summing up all
// the predicted layer execution times").
func (m *Model) UnitTimeMs(u *partition.Unit) (float64, error) {
	shapes := u.NodeShapes()
	var total float64
	for _, node := range u.Sub.Nodes() {
		ins := make([][]int, len(node.Inputs))
		for i, in := range node.Inputs {
			if in < 0 {
				ins[i] = u.InShape
			} else {
				ins[i] = shapes[in]
			}
		}
		ms, err := m.OpTimeMs(node.Op, ins)
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}

// GroupComputeMs predicts the monolithic compute time of units[first..last].
func (m *Model) GroupComputeMs(units []*partition.Unit, first, last int) (float64, error) {
	var total float64
	for _, u := range units[first : last+1] {
		ms, err := m.UnitTimeMs(u)
		if err != nil {
			return 0, err
		}
		total += ms
	}
	return total, nil
}

// TransferMs predicts a payload transfer time over the function link.
func (m *Model) TransferMs(bytes int64) float64 {
	return float64(bytes) / 1e6 / m.netMBps * 1000
}

// MaxCommMs predicts the expected maximum invocation overhead across n
// concurrent workers via EMG order statistics (§IV-A).
func (m *Model) MaxCommMs(n int) float64 {
	if n <= 0 {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if v, ok := m.maxCommMemo[n]; ok {
		return v
	}
	v := m.comm.ExpectedMax(n)
	m.maxCommMemo[n] = v
	return v
}

// expectedForkJoinMs estimates E[max_i(offset_i + overhead_i + comp_i)]
// where overhead_i are i.i.d. draws from the fitted EMG distribution —
// the generalization of the n-th order statistic to workers with
// deterministic start offsets. A fixed-seed Monte Carlo keeps the
// prediction deterministic.
func (m *Model) expectedForkJoinMs(offsets, comps []float64) float64 {
	n := len(offsets)
	if n == 0 {
		return 0
	}
	const trials = 1200
	rng := rand.New(rand.NewSource(0x6f725374))
	var sum float64
	for t := 0; t < trials; t++ {
		worst := math.Inf(-1)
		for i := 0; i < n; i++ {
			v := offsets[i] + m.comm.Sample(rng) + comps[i]
			if v > worst {
				worst = v
			}
		}
		sum += worst
	}
	return sum / trials
}

// GroupPrediction is the model's estimate for one group plan.
type GroupPrediction struct {
	// LatencyMs is the master-observed time for the group.
	LatencyMs float64
	// WorkerMs are the predicted handler durations of the worker functions.
	WorkerMs []float64
	// UploadMs, OverheadMs and DownloadMs decompose the communication.
	UploadMs, OverheadMs, DownloadMs float64
	// OOM marks a plan that exceeds a function's memory budget.
	OOM bool
	// OOMReason explains the violation.
	OOMReason string
}

// PredictGroup estimates the latency of one layer group under a group plan
// (Algorithm 1's latency oracle for a given parallelization option and
// master participation).
func (m *Model) PredictGroup(units []*partition.Unit, gp partition.GroupPlan) (GroupPrediction, error) {
	return m.predictGroupBatch(units, gp, 1)
}

// predictGroupBatch is PredictGroup with an explicit batch dimension:
// compute and payload bytes scale with the batch, while the per-round
// invocation overheads (request fan-out, EMG cold-path draws) are paid
// once — the amortization cross-query batching buys. Every batch
// scaling is a multiplication by float64(batch) or int64(batch), so
// batch 1 reproduces the unbatched prediction bit-for-bit.
func (m *Model) predictGroupBatch(units []*partition.Unit, gp partition.GroupPlan, batch int) (GroupPrediction, error) {
	if batch < 1 {
		return GroupPrediction{}, fmt.Errorf("perf: batch must be positive, got %d", batch)
	}
	bf, bi := float64(batch), int64(batch)
	ext, err := partition.GroupExtent(units, gp.First, gp.Last, gp.Option)
	if err != nil {
		return GroupPrediction{}, err
	}
	var pred GroupPrediction
	budget := int64(m.cfg.WeightBudgetMB) * 1e6
	if ext.WeightBytes+ext.ActBytes*bi > budget {
		pred.OOM = true
		pred.OOMReason = fmt.Sprintf("partition weights+activations %d MB exceed budget %d MB",
			(ext.WeightBytes+ext.ActBytes*bi)/1e6, budget/1e6)
	}
	baseMs, err := m.GroupComputeMs(units, gp.First, gp.Last)
	if err != nil {
		return GroupPrediction{}, err
	}
	baseMs *= bf
	groupFLOPs := int64(0)
	for _, u := range units[gp.First : gp.Last+1] {
		groupFLOPs += u.FLOPs
	}
	scale := func(flops int64) float64 {
		if groupFLOPs == 0 {
			return 0
		}
		return baseMs * float64(flops) / float64(groupFLOPs)
	}

	if gp.Option.Dim == partition.DimNone {
		if gp.OnMaster {
			pred.LatencyMs = baseMs
			return pred, nil
		}
		up := m.cfg.RequestOverheadMs + m.TransferMs(ext.InBytesTotal*bi)
		over := m.MaxCommMs(1)
		down := m.TransferMs(ext.OutBytesTotal * bi)
		pred.UploadMs, pred.OverheadMs, pred.DownloadMs = up, over, down
		pred.WorkerMs = []float64{baseMs}
		pred.LatencyMs = up + over + baseMs + down
		return pred, nil
	}

	// Parallel execution: collect per-partition compute and payloads.
	type part struct {
		flops   int64
		in, out int64
	}
	var parts []part
	switch gp.Option.Dim {
	case partition.DimSpatial:
		slices, err := partition.SpatialSlices(units[gp.First:gp.Last+1], gp.Option.Parts)
		if err != nil {
			return GroupPrediction{}, err
		}
		for _, ps := range slices {
			parts = append(parts, part{flops: ps.FLOPs, in: ps.InBytes, out: ps.OutBytes})
		}
	case partition.DimChannel:
		slices, err := partition.ChannelSlices(units[gp.First], gp.Option.Parts)
		if err != nil {
			return GroupPrediction{}, err
		}
		for _, cs := range slices {
			parts = append(parts, part{flops: cs.FLOPs, in: cs.InBytes, out: cs.OutBytes})
		}
	default:
		return GroupPrediction{}, fmt.Errorf("perf: unknown option %v", gp.Option)
	}

	workerParts := parts
	var masterMs float64
	if gp.OnMaster {
		masterMs = scale(parts[0].flops)
		workerParts = parts[1:]
	}
	var upTotal, downTotal, maxPartDown float64
	offsets := make([]float64, 0, len(workerParts))
	comps := make([]float64, 0, len(workerParts))
	for _, wp := range workerParts {
		upTotal += m.cfg.RequestOverheadMs + m.TransferMs(wp.in*bi)
		offsets = append(offsets, upTotal) // upload prefix: when this worker's request is out
		d := m.TransferMs(wp.out * bi)
		downTotal += d
		if d > maxPartDown {
			maxPartDown = d
		}
		ms := scale(wp.flops)
		pred.WorkerMs = append(pred.WorkerMs, ms)
		comps = append(comps, ms)
	}
	over := m.MaxCommMs(len(workerParts))
	// Workers start staggered by their upload slots, so their responses
	// partially drain the downlink before the last worker finishes; the
	// effective serialized tail is between one response and the full total.
	downEff := (downTotal + maxPartDown) / 2
	pred.UploadMs, pred.OverheadMs, pred.DownloadMs = upTotal, over, downEff

	// Fork-join completion: the expected maximum over workers of
	// (upload prefix + EMG overhead + compute), by order statistics over
	// the fitted distribution with deterministic offsets; the master
	// computes its own partition concurrently with the uploads.
	workerSide := m.expectedForkJoinMs(offsets, comps) + downEff
	masterSide := masterMs
	if upTotal > masterSide {
		masterSide = upTotal
	}
	if masterSide > workerSide {
		pred.LatencyMs = masterSide
	} else {
		pred.LatencyMs = workerSide
	}
	// Reassembly (memory-bandwidth bound concatenation).
	if m.cfg.MemGBps > 0 {
		pred.LatencyMs += float64(ext.OutBytesTotal*bi) / 1e9 / m.cfg.MemGBps * 1000
	}
	return pred, nil
}

// PlanPrediction is the model's estimate for a complete strategy.
type PlanPrediction struct {
	// LatencyMs is the end-to-end inference latency (master duration).
	LatencyMs float64
	// BilledMs is the billed function duration C^S(G) of Eq. (2).
	BilledMs int64
	// Groups holds the per-group predictions.
	Groups []GroupPrediction
	// OOM marks an infeasible plan; OOMReason explains it.
	OOM       bool
	OOMReason string
}

// PredictPlan estimates latency and cost of a full plan, checking both the
// per-worker and the cumulative master memory budgets.
func (m *Model) PredictPlan(units []*partition.Unit, plan *partition.Plan) (PlanPrediction, error) {
	bp, err := m.PredictPlanBatch(units, plan, 1)
	if err != nil {
		return PlanPrediction{}, err
	}
	return bp.PlanPrediction, nil
}

// predictPlanBatch estimates a full plan serving batches of the given size
// in every fork-join round.
func (m *Model) predictPlanBatch(units []*partition.Unit, plan *partition.Plan, batch int) (PlanPrediction, error) {
	if err := plan.Validate(units); err != nil {
		return PlanPrediction{}, err
	}
	var out PlanPrediction
	budget := int64(m.cfg.WeightBudgetMB) * 1e6
	var masterBytes int64
	for _, gp := range plan.Groups {
		pred, err := m.predictGroupBatch(units, gp, batch)
		if err != nil {
			return PlanPrediction{}, err
		}
		out.Groups = append(out.Groups, pred)
		out.LatencyMs += pred.LatencyMs
		if pred.OOM && !out.OOM {
			out.OOM, out.OOMReason = true, pred.OOMReason
		}
		if gp.OnMaster {
			ext, err := partition.GroupExtent(units, gp.First, gp.Last, gp.Option)
			if err != nil {
				return PlanPrediction{}, err
			}
			masterBytes += ext.WeightBytes
		}
		for _, wms := range pred.WorkerMs {
			out.BilledMs += billedMs(wms, m.cfg.BillingGranMs)
		}
	}
	if masterBytes > budget && !out.OOM {
		out.OOM = true
		out.OOMReason = fmt.Sprintf("master resident weights %d MB exceed budget %d MB", masterBytes/1e6, budget/1e6)
	}
	out.BilledMs += billedMs(out.LatencyMs, m.cfg.BillingGranMs)
	return out, nil
}

// PredictDefault estimates single-function (unpartitioned) serving: the
// Default baseline. It returns an OOM prediction when the model does not
// fit the weight budget.
func (m *Model) PredictDefault(units []*partition.Unit) (PlanPrediction, error) {
	return m.PredictPlan(units, partition.DefaultPlan("default", units))
}

func billedMs(ms float64, gran int64) int64 {
	if ms <= 0 {
		return 0
	}
	return int64(math.Ceil(ms/float64(gran))) * gran
}
