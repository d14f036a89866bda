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
	var total float64
	for _, node := range u.Sub.Nodes() {
		ms, err := m.OpTimeMs(node.Op, u.NodeInShapes(node))
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

// round is one group's fork-join round as the model prices it at a batch
// size: worker i's request is out after offsets[i] (the upload prefix, the
// whole upload after the last), it then computes for comps[i], while the
// master computes masterMs of its own; downMs is the effective serialized
// download. A whole group on a worker is a one-worker round, a whole group
// on the master a round with no worker.
type round struct {
	offsets, comps         []float64
	masterMs, upMs, downMs float64
}

// round decomposes the group gp, of extent ext and monolithic compute time
// baseMs at the given batch, into its fork-join round. A partition computes
// its share of baseMs by FLOPs (a whole group all of it); the master takes
// partition 0 when the plan places it there, the workers the rest.
func (m *Model) round(ext partition.Extent, gp partition.GroupPlan, baseMs float64, batch int64) round {
	partMs := func(p partition.PartExtent) float64 {
		switch {
		case gp.Option.Dim == partition.DimNone:
			return baseMs
		case ext.GroupFLOPs == 0:
			return 0
		}
		return baseMs * float64(p.FLOPs) / float64(ext.GroupFLOPs)
	}
	var r round
	workers := ext.PerPart
	if gp.OnMaster {
		r.masterMs = partMs(workers[0])
		workers = workers[1:]
	}
	if len(workers) == 0 {
		return r
	}
	r.offsets = make([]float64, 0, len(workers))
	r.comps = make([]float64, 0, len(workers))
	var downTotal, maxPartDown float64
	for _, p := range workers {
		r.upMs += m.cfg.RequestOverheadMs + m.TransferMs(p.InBytes*batch)
		r.offsets = append(r.offsets, r.upMs)
		d := m.TransferMs(p.OutBytes * batch)
		downTotal += d
		if d > maxPartDown {
			maxPartDown = d
		}
		r.comps = append(r.comps, partMs(p))
	}
	// Workers start staggered by their upload slots, so their responses
	// partially drain the downlink before the last worker finishes; the
	// effective serialized tail is between one response and the full total.
	r.downMs = (downTotal + maxPartDown) / 2
	return r
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

// PredictPlan estimates latency and cost of a full plan serving one query,
// on a fresh table.
func (m *Model) PredictPlan(units []*partition.Unit, plan *partition.Plan) (PlanPrediction, error) {
	bp, err := m.Table(units, 1).Plan(plan)
	return bp.PlanPrediction, err
}
