package mesh

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// Report aggregates one mesh replay. Every field is derived
// deterministically from the mesh's counters, so for a fixed seed and
// trace the report is byte-stable under JSON encoding — the mesh golden
// and the BENCH_mesh.json baseline pin it directly.
type Report struct {
	// Instances/InstanceMemMB/Models echo the pool and catalog sizing.
	Instances     int `json:"instances"`
	InstanceMemMB int `json:"instance_mem_mb"`
	Models        int `json:"models"`
	// Queries counts routed acquires; Hits and Misses partition them by
	// whether the model was resident when the query arrived. HitPct is
	// hits over queries.
	Queries int     `json:"queries"`
	Hits    int     `json:"hits"`
	Misses  int     `json:"misses"`
	HitPct  float64 `json:"hit_pct"`
	// Loads counts storage fetches performed; LoadWaits the missed queries
	// that piggybacked on another query's in-progress load instead of
	// fetching their own copy; Evictions the LRU removals that made room.
	Loads     int `json:"loads"`
	LoadWaits int `json:"load_waits"`
	Evictions int `json:"evictions"`
	// LoadedMB is the cumulative bytes fetched from object storage;
	// MeanLoadMs the mean fetch-plus-warm-up time per load.
	LoadedMB   float64 `json:"loaded_mb"`
	MeanLoadMs float64 `json:"mean_load_ms"`
	// ResidentModels/ResidentMB snapshot residency at report time.
	ResidentModels int     `json:"resident_models"`
	ResidentMB     float64 `json:"resident_mb"`
	// PerModel lists every catalog entry in catalog order.
	PerModel []ModelReport `json:"per_model"`
}

// ModelReport is one catalog entry's accounting.
type ModelReport struct {
	ID string `json:"id"`
	// PredictedMB is the catalog-time size estimate (the plan's transfer
	// profile); MeasuredMB the exact resident set learned on first load
	// (zero if the model never loaded).
	PredictedMB float64 `json:"predicted_mb"`
	MeasuredMB  float64 `json:"measured_mb"`
	Hits        int     `json:"hits"`
	Misses      int     `json:"misses"`
	Loads       int     `json:"loads"`
	LoadWaits   int     `json:"load_waits,omitempty"`
	Evictions   int     `json:"evictions,omitempty"`
	// Resident is how many instances hold the model at report time.
	Resident int `json:"resident,omitempty"`
}

// Report builds the mesh's deterministic accounting snapshot.
func (m *Mesh) Report() *Report {
	rep := &Report{
		Instances:     m.cfg.Instances,
		InstanceMemMB: m.cfg.InstanceMemMB,
		Models:        len(m.order),
	}
	var loadMsSum float64
	for _, mm := range m.order {
		id := mm.spec.ID
		mr := ModelReport{
			ID:          id,
			PredictedMB: roundMB(mm.predicted),
			MeasuredMB:  roundMB(mm.measured),
			Hits:        mm.hits,
			Misses:      mm.misses,
			Loads:       mm.loads,
			LoadWaits:   mm.loadWaits,
			Evictions:   mm.evictions,
		}
		for _, inst := range m.insts {
			if r := inst.resident[mm.slot]; r != nil && r.loading == nil {
				mr.Resident++
			}
		}
		rep.Hits += mm.hits
		rep.Misses += mm.misses
		rep.Loads += mm.loads
		rep.LoadWaits += mm.loadWaits
		rep.Evictions += mm.evictions
		rep.LoadedMB += float64(mm.loadedBytes) / 1e6
		loadMsSum += mm.loadMsSum
		rep.PerModel = append(rep.PerModel, mr)
	}
	rep.Queries = rep.Hits + rep.Misses
	if rep.Queries > 0 {
		rep.HitPct = round3(100 * float64(rep.Hits) / float64(rep.Queries))
	}
	rep.LoadedMB = round3(rep.LoadedMB)
	if rep.Loads > 0 {
		rep.MeanLoadMs = round3(loadMsSum / float64(rep.Loads))
	}
	var bytes int64
	for _, inst := range m.insts {
		for _, r := range inst.resident {
			if r != nil && r.loading == nil {
				rep.ResidentModels++
				bytes += r.bytes
			}
		}
	}
	rep.ResidentMB = roundMB(bytes)
	return rep
}

// Table renders the report in the figure runners' tabular style.
func (r *Report) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Mesh: %d models on %d x %d MB instances — %d queries, %.1f%% hits, %d loads (%d waited), %d evictions\n",
		r.Models, r.Instances, r.InstanceMemMB, r.Queries, r.HitPct, r.Loads, r.LoadWaits, r.Evictions)
	fmt.Fprintf(&sb, "%-20s %9s %9s %6s %6s %6s %6s %4s\n",
		"model", "pred MB", "meas MB", "hits", "miss", "loads", "evict", "res")
	for _, mr := range r.PerModel {
		fmt.Fprintf(&sb, "%-20s %9.2f %9.2f %6d %6d %6d %6d %4d\n",
			mr.ID, mr.PredictedMB, mr.MeasuredMB, mr.Hits, mr.Misses, mr.Loads, mr.Evictions, mr.Resident)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report byte-stably.
func (r *Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

func roundMB(b int64) float64 { return round3(float64(b) / 1e6) }

func round3(v float64) float64 { return math.Round(v*1000) / 1000 }
