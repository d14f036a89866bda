package core

import (
	"fmt"
	"math"
	"math/rand"

	"gillis/internal/neural"
	"gillis/internal/partition"
	"gillis/internal/perf"
)

// SLOConfig tunes the SLO-aware reinforcement learner. It plans for
// single-query serving over partition.DefaultPartCounts, and its placer may
// always put a group on the master.
type SLOConfig struct {
	// Episodes is the number of simulated-experiment training episodes
	// (default 1500).
	Episodes int
	// Seed makes training reproducible.
	Seed int64
}

// The learner's fixed hyperparameters.
const (
	// sloHidden is the policy networks' hidden width (the paper uses
	// two-layer networks).
	sloHidden = 32
	// sloLR is the Adam learning rate.
	sloLR = 0.01
	// sloBudgetMs is B in the reward function (Eq. 4), large enough that an
	// SLO-compliant strategy always earns a positive reward.
	sloBudgetMs = 50000
	// sloRollouts is the number of rollouts per policy-gradient update; the
	// batch mean serves as the REINFORCE baseline.
	sloRollouts = 10
)

// SLOResult reports the learned strategy.
type SLOResult struct {
	// Plan is the best strategy found (lowest billed cost among
	// SLO-compliant episodes, or the lowest-latency strategy if none
	// complied).
	Plan *partition.Plan
	// Pred is the performance-model prediction for Plan.
	Pred perf.PlanPrediction
	// Met reports whether Plan satisfies the SLO (Gillis "notifies the user
	// if the SLO is met", §V).
	Met bool
	// Episodes is the number of training episodes run.
	Episodes int
	// MeanReward traces smoothed training reward (diagnostics).
	MeanReward []float64
}

// SLOAware learns a cost-minimal strategy under a mean-latency SLO using
// the paper's hierarchical RL formulation (§IV-C): a partitioner policy
// walks the unit chain deciding layer grouping and per-group
// parallelization, a placer policy decides master participation per group,
// and both are trained jointly with REINFORCE against rewards computed by
// the performance model in simulated experiments.
func SLOAware(m *perf.Model, units []*partition.Unit, tmaxMs float64, cfg SLOConfig) (SLOResult, error) {
	if err := validateInputs(m, units); err != nil {
		return SLOResult{}, err
	}
	if tmaxMs <= 0 {
		return SLOResult{}, fmt.Errorf("core: SLO T_max must be positive, got %v", tmaxMs)
	}
	episodes := cfg.Episodes
	if episodes <= 0 {
		episodes = 1500
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	t := m.Table(units, 1)
	budget := int64(m.Platform().WeightBudgetMB) * 1e6
	agent := newAgents(rng, newGroupOptions())

	var (
		best     *partition.Plan
		bestPred perf.PlanPrediction
		bestMet  bool
		baseline float64
		varEst   float64
		haveBase bool
		trace    []float64
	)
	better := func(pred perf.PlanPrediction, met bool) bool {
		if best == nil {
			return true
		}
		if met != bestMet {
			return met
		}
		if met {
			return pred.BilledMs < bestPred.BilledMs
		}
		return !pred.OOM && (bestPred.OOM || pred.LatencyMs < bestPred.LatencyMs)
	}

	type rollout struct {
		steps  []step
		reward float64
	}
	for ep := 0; ep < episodes; ep += sloRollouts {
		batch := make([]rollout, 0, sloRollouts)
		for b := 0; b < sloRollouts && ep+b < episodes; b++ {
			plan, steps, err := agent.rollout(rng, units, t, budget)
			if err != nil {
				return SLOResult{}, err
			}
			bp, err := t.Plan(plan)
			if err != nil {
				return SLOResult{}, err
			}
			pred := bp.PlanPrediction
			// Reward function, Eq. (4), on the predicted mean latency; OOM
			// strategies get a large negative reward.
			var reward float64
			met := false
			switch {
			case pred.OOM:
				reward = -sloBudgetMs
			case pred.LatencyMs <= tmaxMs:
				reward = sloBudgetMs - float64(pred.BilledMs)
				met = true
			default:
				reward = tmaxMs - pred.LatencyMs
			}
			if better(pred, met) {
				best, bestPred, bestMet = plan, pred, met
			}
			batch = append(batch, rollout{steps: steps, reward: reward})
		}
		// Batch-relative advantages (REINFORCE with baseline, §IV-C): the
		// batch mean is the baseline, blended with a running mean for
		// stability; a running variance standardizes the scale.
		var batchMean float64
		for _, r := range batch {
			batchMean += r.reward
		}
		batchMean /= float64(len(batch))
		if !haveBase {
			baseline, varEst, haveBase = batchMean, 1, true
		}
		base := 0.5*baseline + 0.5*batchMean
		for _, r := range batch {
			diff := r.reward - base
			varEst = 0.99*varEst + 0.01*diff*diff
		}
		scale := math.Sqrt(varEst) + 1e-6
		for _, r := range batch {
			advantage := (r.reward - base) / scale
			if advantage > 5 {
				advantage = 5
			}
			if advantage < -5 {
				advantage = -5
			}
			if err := agent.accumulate(r.steps, advantage); err != nil {
				return SLOResult{}, err
			}
		}
		agent.step()
		baseline = 0.9*baseline + 0.1*batchMean
		trace = append(trace, baseline)
	}
	if best == nil {
		return SLOResult{}, fmt.Errorf("core: RL produced no plan in %d episodes", episodes)
	}
	return SLOResult{Plan: best, Pred: bestPred, Met: bestMet, Episodes: episodes, MeanReward: trace}, nil
}

// groupOptions is the per-unit action vocabulary: action 0 joins the
// current group; action 1+k starts a new group with options[k].
type groupOptions struct {
	options []partition.Option
}

func newGroupOptions() *groupOptions {
	opts := []partition.Option{{Dim: partition.DimNone, Parts: 1}}
	for _, p := range partition.DefaultPartCounts {
		opts = append(opts, partition.Option{Dim: partition.DimSpatial, Parts: p})
	}
	for _, p := range partition.DefaultPartCounts {
		opts = append(opts, partition.Option{Dim: partition.DimChannel, Parts: p})
	}
	return &groupOptions{options: opts}
}

// agents bundles the partitioner and placer policy networks.
type agents struct {
	partitioner *neural.MLP
	placer      *neural.MLP
	opts        *groupOptions
}

// step records one decision for the REINFORCE update.
type step struct {
	net    *neural.MLP
	cache  *neural.Cache
	probs  []float64
	action int
}

const (
	partFeatures  = 12
	placeFeatures = 10
)

func newAgents(rng *rand.Rand, opts *groupOptions) *agents {
	return &agents{
		partitioner: neural.NewMLP(rng, partFeatures, sloHidden, 1+len(opts.options), sloLR),
		placer:      neural.NewMLP(rng, placeFeatures, sloHidden, 2, sloLR),
		opts:        opts,
	}
}

// rollout samples one full strategy from the current policies, placing
// groups on the master within its weight budget.
func (a *agents) rollout(rng *rand.Rand, units []*partition.Unit, t *perf.Table, budget int64) (*partition.Plan, []step, error) {
	var steps []step
	n := len(units)

	// Phase 1: partitioner walks the units.
	type rawGroup struct {
		first, last int
		opt         partition.Option
	}
	var groups []rawGroup
	for i := 0; i < n; i++ {
		allowed := make([]bool, 1+len(a.opts.options))
		// Join: extend the current group with unit i.
		if len(groups) > 0 {
			g := groups[len(groups)-1]
			allowed[0] = partition.Feasible(units, g.first, i, g.opt)
		}
		for k, opt := range a.opts.options {
			allowed[1+k] = partition.Feasible(units, i, i, opt)
		}
		curFirst, curOpt := -1, partition.Option{}
		if len(groups) > 0 {
			curFirst, curOpt = groups[len(groups)-1].first, groups[len(groups)-1].opt
		}
		feat := partitionerFeatures(units, i, curFirst, curOpt)
		cache, err := a.partitioner.Forward(feat)
		if err != nil {
			return nil, nil, err
		}
		probs, err := neural.MaskedSoftmax(cache.Logits, allowed)
		if err != nil {
			return nil, nil, fmt.Errorf("core: unit %d has no feasible action: %w", i, err)
		}
		act := neural.Sample(rng, probs)
		steps = append(steps, step{net: a.partitioner, cache: cache, probs: probs, action: act})
		if act == 0 {
			groups[len(groups)-1].last = i
		} else {
			groups = append(groups, rawGroup{first: i, last: i, opt: a.opts.options[act-1]})
		}
	}

	// Phase 2: placer decides master participation group by group,
	// respecting the remaining master budget.
	remaining := budget
	plan := &partition.Plan{Model: modelName(units)}
	for gi, g := range groups {
		ext, err := t.Extent(g.first, g.last, g.opt)
		if err != nil {
			return nil, nil, err
		}
		canMaster := ext.WeightBytes <= remaining
		allowed := []bool{true, canMaster} // 0: workers only, 1: master participates
		feat := placerFeatures(units, g.first, g.last, g.opt, ext, remaining, budget, gi, len(groups))
		cache, err := a.placer.Forward(feat)
		if err != nil {
			return nil, nil, err
		}
		probs, err := neural.MaskedSoftmax(cache.Logits, allowed)
		if err != nil {
			return nil, nil, err
		}
		act := neural.Sample(rng, probs)
		steps = append(steps, step{net: a.placer, cache: cache, probs: probs, action: act})
		onMaster := act == 1
		if onMaster {
			remaining -= ext.WeightBytes
		}
		plan.Groups = append(plan.Groups, partition.GroupPlan{
			First: g.first, Last: g.last, Option: g.opt, OnMaster: onMaster,
		})
	}
	return plan, steps, nil
}

// accumulate adds one rollout's REINFORCE gradients (Eqs. 5-6) with a small
// entropy bonus that keeps the stochastic policies exploring.
func (a *agents) accumulate(steps []step, advantage float64) error {
	const entropyBeta = 0.01
	for _, s := range steps {
		d := neural.PolicyGrad(s.probs, s.action, advantage)
		var entropy float64
		for _, p := range s.probs {
			if p > 0 {
				entropy -= p * math.Log(p)
			}
		}
		for i, p := range s.probs {
			if p > 0 {
				d[i] += entropyBeta * p * (math.Log(p) + entropy)
			}
		}
		if err := s.net.Backward(s.cache, d); err != nil {
			return err
		}
	}
	return nil
}

// step applies the accumulated batch gradients to both policies.
func (a *agents) step() {
	a.partitioner.Step()
	a.placer.Step()
}

// partitionerFeatures encodes unit i and the open group's state.
func partitionerFeatures(units []*partition.Unit, i, curFirst int, curOpt partition.Option) []float64 {
	u := units[i]
	f := make([]float64, 0, partFeatures)
	f = append(f,
		b2f(u.Spatial),
		b2f(u.Channel),
		logScale(float64(u.FLOPs)/1e9),
		logScale(float64(u.ParamBytes)/1e6),
		logScale(mb(u.InShape)),
		logScale(mb(u.OutShape)),
		float64(u.OutHeight())/224,
		float64(i)/float64(len(units)),
	)
	if curFirst >= 0 {
		var gflops float64
		for _, gu := range units[curFirst:i] {
			gflops += float64(gu.FLOPs) / 1e9
		}
		f = append(f, 1, float64(i-curFirst)/8, logScale(gflops), float64(curOpt.Parts)/16)
	} else {
		f = append(f, 0, 0, 0, 0)
	}
	return f
}

// placerFeatures encodes one group for the placer.
func placerFeatures(units []*partition.Unit, first, last int, opt partition.Option,
	ext partition.Extent, remaining, budget int64, gi, nGroups int) []float64 {
	var gflops float64
	for _, u := range units[first : last+1] {
		gflops += float64(u.FLOPs) / 1e9
	}
	return []float64{
		b2f(opt.Dim == partition.DimSpatial),
		b2f(opt.Dim == partition.DimChannel),
		b2f(opt.Dim == partition.DimNone),
		float64(opt.Parts) / 16,
		logScale(gflops),
		logScale(float64(ext.WeightBytes) / 1e6),
		logScale(float64(ext.InBytesTotal) / 1e6),
		logScale(float64(ext.OutBytesTotal) / 1e6),
		float64(remaining) / float64(budget),
		float64(gi) / float64(nGroups),
	}
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func logScale(v float64) float64 { return math.Log1p(v) }

func mb(shape []int) float64 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return float64(n) * 4 / 1e6
}
