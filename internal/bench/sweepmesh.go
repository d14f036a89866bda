package bench

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/mesh"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/workload"
)

// The SweepMesh figure drives the multi-model serving mesh with Zipf-skewed
// catalog traffic and compares LRU residency caching against a no-cache
// baseline that refetches the model for every query. The axes are the three
// knobs a catalog operator turns: how many models share the pool, how
// skewed their popularity is, and how many instances the pool holds. Loads
// are charged like autoscaler prewarming (Config.PrewarmMs = the cold-start
// time), so the cache's hit rate shows up directly in SLO attainment and
// cost per query. The JSON output is the checked-in BENCH_mesh.json
// baseline.

// meshZoo lists the catalog models in popularity-rank order (first = most
// popular). Measured resident sizes span ~8–30 MB, so swept catalog
// prefixes stress the pool's memory budget at different depths.
var meshZoo = []string{
	"mobilenet-mini", "rnn-tiny2", "mobilenet-mini-w2",
	"rnn-tiny4", "rnn-tiny6", "mobilenet-mini-w3",
}

// sweepMeshMemMB sizes each instance: every zoo model fits alone
// (largest measured ~30 MB), but deep catalogs cannot stay fully resident
// on small pools.
const sweepMeshMemMB = 36

// SweepMeshRow is one (catalog size, Zipf skew, pool size, policy) replay.
type SweepMeshRow struct {
	Models    int     `json:"models"`
	ZipfS     float64 `json:"zipf_s"`
	Instances int     `json:"instances"`
	// Policy is "lru" (capacity-constrained residency with LRU eviction)
	// or "nocache" (every query refetches the model).
	Policy string `json:"policy"`
	// Report is the gateway's full deterministic load report; Mesh the
	// placement layer's accounting for the same replay.
	Report *gateway.LoadReport `json:"report"`
	Mesh   *mesh.Report        `json:"mesh"`
	// CostInflation is this policy's cost-per-1k over the LRU policy's on
	// the same cell (1.0 for LRU itself).
	CostInflation float64 `json:"cost_inflation"`
}

// SweepMeshReport is the full sweep plus the calibrated SLO deadline the
// attainment numbers are against.
type SweepMeshReport struct {
	Catalog       []string `json:"catalog"`
	InstanceMemMB int      `json:"instance_mem_mb"`
	// SLOMs is calibrated from the slowest catalog model's warm serving
	// latency: warm hits attain, queries that pay a storage fetch for a
	// large model do not.
	SLOMs float64        `json:"slo_ms"`
	Rows  []SweepMeshRow `json:"rows"`
}

// meshSpecs builds catalog entries for the first n zoo models, each under a
// single all-on-master group plan (the mesh cares about sizes and
// placement, not partition structure).
func meshSpecs(ctx *Context, n int) ([]mesh.ModelSpec, error) {
	specs := make([]mesh.ModelSpec, 0, n)
	for _, name := range meshZoo[:n] {
		units, err := ctx.Units(name)
		if err != nil {
			return nil, err
		}
		specs = append(specs, mesh.ModelSpec{ID: name, Units: units, Plan: partition.DefaultPlan(name, units)})
	}
	return specs, nil
}

// meshPlatformCfg is the mesh sweep's serving economics: pools stay warm
// across the replay (residency, not idle expiry, is the study's signal) and
// every model load bills a cold-start's worth of warm-up time.
func meshPlatformCfg() platform.Config {
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 300000
	cfg.PrewarmMs = cfg.ColdStartMs
	return cfg
}

// calibrateMeshWarmMs measures the slowest catalog model's warm serving
// latency on a fresh single-instance mesh (loads prepaid, so only the serve
// path is timed).
func calibrateMeshWarmMs(ctx *Context, n int) (float64, error) {
	specs, err := meshSpecs(ctx, n)
	if err != nil {
		return 0, err
	}
	var warmMs float64
	for _, spec := range specs {
		_, err := platform.Run(meshPlatformCfg(), ctx.Seed, func(p *platform.Platform, proc *simnet.Proc) error {
			m, err := mesh.New(p, mesh.Config{Instances: 1, InstanceMemMB: sweepMeshMemMB}, []mesh.ModelSpec{spec})
			if err != nil {
				return err
			}
			for i := 0; i < 3; i++ {
				d, release, err := m.Acquire(proc, spec.ID)
				if err != nil {
					return err
				}
				before := proc.Now()
				_, _, err = d.ServeBatch(proc, nil, 1, false)
				release()
				if err != nil {
					return err
				}
				if ms := float64(proc.Now()-before) / 1e6; i > 0 && ms > warmMs {
					warmMs = ms
				}
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return warmMs, nil
}

// replayMesh runs one mesh-routed gateway replay on a fresh platform.
func replayMesh(ctx *Context, nModels int, zipfS float64, instances int, noCache bool,
	sloMs float64, horizon time.Duration) (*gateway.LoadReport, *mesh.Report, error) {
	specs, err := meshSpecs(ctx, nModels)
	if err != nil {
		return nil, nil, err
	}
	spec := workload.ZipfSpec{Models: meshZoo[:nModels], S: zipfS}
	seed := ctx.Seed + int64(nModels)*101 + int64(zipfS*1000)*13 + int64(instances)*7
	arrivals, err := workload.MultiModel(rand.New(rand.NewSource(seed)), spec, 2, horizon)
	if err != nil {
		return nil, nil, err
	}
	var m *mesh.Mesh
	deploy := func(p *platform.Platform, gcfg *gateway.Config) (gateway.Backend, error) {
		m, err = mesh.New(p, mesh.Config{
			Instances:      instances,
			InstanceMemMB:  sweepMeshMemMB,
			MaxPerInstance: 4,
			NoCache:        noCache,
		}, specs)
		if err != nil {
			return nil, err
		}
		gcfg.Router = m
		return m, nil
	}
	rep, _, err := replay(meshPlatformCfg(), seed, deploy, workload.Times(arrivals), gateway.Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       sloMs,
		Model:       func(i int) string { return arrivals[i].Model },
	})
	if err != nil {
		return nil, nil, err
	}
	return rep, m.Report(), nil
}

// SweepMesh runs the sweep: catalog size × Zipf skew × pool size, each cell
// replayed under LRU caching and the no-cache baseline. Quick mode trims to
// one cell over a shorter horizon.
func SweepMesh(ctx *Context) (*SweepMeshReport, error) {
	catalogSizes := []int{3, 6}
	zipfSkews := []float64{0.7, 1.1}
	poolSizes := []int{2, 4}
	horizon := 60 * time.Second
	if ctx.Quick {
		catalogSizes = []int{4}
		zipfSkews = []float64{1.1}
		poolSizes = []int{2}
		horizon = 30 * time.Second
	}
	maxCatalog := catalogSizes[len(catalogSizes)-1]

	warmMs, err := calibrateMeshWarmMs(ctx, maxCatalog)
	if err != nil {
		return nil, fmt.Errorf("bench: mesh calibration: %w", err)
	}
	// Warm hits attain with half-a-cold-start headroom for queueing; a
	// query that waits on a sizable storage fetch violates.
	cfg := meshPlatformCfg()
	sloMs := round3(warmMs + 0.5*cfg.ColdStartMs)

	report := &SweepMeshReport{
		Catalog:       meshZoo[:maxCatalog],
		InstanceMemMB: sweepMeshMemMB,
		SLOMs:         sloMs,
	}
	for _, nModels := range catalogSizes {
		for _, s := range zipfSkews {
			for _, instances := range poolSizes {
				var lruPer1K float64
				for _, noCache := range []bool{false, true} {
					rep, mrep, err := replayMesh(ctx, nModels, s, instances, noCache, sloMs, horizon)
					if err != nil {
						return nil, fmt.Errorf("bench: mesh %d models s=%g x%d nocache=%v: %w",
							nModels, s, instances, noCache, err)
					}
					row := SweepMeshRow{
						Models: nModels, ZipfS: s, Instances: instances,
						Policy: "lru", Report: rep, Mesh: mrep,
					}
					if noCache {
						row.Policy = "nocache"
					} else {
						lruPer1K = rep.CostPer1K
					}
					if lruPer1K > 0 {
						row.CostInflation = round3(rep.CostPer1K / lruPer1K)
					}
					report.Rows = append(report.Rows, row)
				}
			}
		}
	}
	return report, nil
}

// AtCell returns the sweep's rows for one (catalog size, skew, pool size)
// cell, LRU first.
func (r *SweepMeshReport) AtCell(models int, zipfS float64, instances int) []SweepMeshRow {
	var rows []SweepMeshRow
	for _, row := range r.Rows {
		if row.Models == models && row.ZipfS == zipfS && row.Instances == instances {
			rows = append(rows, row)
		}
	}
	return rows
}

// Table renders the sweep in the figure runners' tabular style.
func (r *SweepMeshReport) Table() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Mesh sweep: %d-model catalog on %d MB instances (SLO %.0f ms)\n",
		len(r.Catalog), r.InstanceMemMB, r.SLOMs)
	fmt.Fprintf(&sb, "%6s %5s %5s %-8s │ %6s %6s %6s %6s │ %6s %8s %9s %6s\n",
		"models", "zipf", "pool", "policy", "hit%", "loads", "evict", "shed", "slo%", "p99", "cost/1k", "infl")
	for _, row := range r.Rows {
		rep, m := row.Report, row.Mesh
		fmt.Fprintf(&sb, "%6d %5.1f %5d %-8s │ %6.1f %6d %6d %6d │ %6.1f %8.0f %9.0f %6.2f\n",
			row.Models, row.ZipfS, row.Instances, row.Policy,
			m.HitPct, m.Loads, m.Evictions, rep.Shed,
			rep.SLOPct, rep.P99Ms, rep.CostPer1K, row.CostInflation)
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report as the BENCH_mesh.json baseline format.
func (r *SweepMeshReport) JSON() ([]byte, error) { return BaselineJSON(r) }
