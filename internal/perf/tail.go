package perf

import (
	"math"
	"math/rand"
	"sort"

	"gillis/internal/partition"
)

// TailPrediction summarizes a sampled latency distribution for a plan.
type TailPrediction struct {
	MeanMs float64
	P50Ms  float64
	P95Ms  float64
	P99Ms  float64
}

// PredictPlanTail estimates the latency distribution of a plan by Monte
// Carlo over the fitted EMG communication overheads and the platform's
// compute noise. This extends the paper's mean-latency SLOs to the tail
// SLOs discussed as future work in §VI: the same RL machinery applies once
// the tail can be predicted.
func (m *Model) PredictPlanTail(units []*partition.Unit, plan *partition.Plan, trials int) (TailPrediction, error) {
	if err := plan.Validate(units); err != nil {
		return TailPrediction{}, err
	}
	if trials < 100 {
		trials = 100
	}
	// Decompose every group's round once; only the draws vary by trial.
	tab := m.Table(units, 1)
	rounds := make([]round, len(plan.Groups))
	for gi, gp := range plan.Groups {
		c, err := tab.cost(gp.First, gp.Last, gp.Option)
		if err != nil {
			return TailPrediction{}, err
		}
		rounds[gi] = m.round(c.ext, gp, c.baseMs, 1)
	}

	noise := func(rng *rand.Rand) float64 {
		if m.cfg.ComputeNoise <= 0 {
			return 1
		}
		return math.Exp(rng.NormFloat64() * m.cfg.ComputeNoise)
	}
	rng := rand.New(rand.NewSource(0x7461696c))
	lat := make([]float64, trials)
	for t := range lat {
		var total float64
		for gi, r := range rounds {
			switch {
			case len(r.comps) == 0: // whole group on the master
				total += r.masterMs * noise(rng)
			case plan.Groups[gi].Option.Dim == partition.DimNone:
				total += r.upMs + m.comm.Sample(rng) + r.comps[0]*noise(rng) + r.downMs
			default:
				worst := r.masterMs * noise(rng)
				for i, off := range r.offsets {
					v := off + m.comm.Sample(rng) + r.comps[i]*noise(rng)
					if v > worst {
						worst = v
					}
				}
				total += worst + r.downMs
			}
		}
		lat[t] = total
	}
	sort.Float64s(lat)
	q := func(p float64) float64 { return lat[int(p*float64(trials-1))] }
	var mean float64
	for _, v := range lat {
		mean += v
	}
	return TailPrediction{
		MeanMs: mean / float64(trials),
		P50Ms:  q(0.50),
		P95Ms:  q(0.95),
		P99Ms:  q(0.99),
	}, nil
}
