package mesh

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/models"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the mesh-report golden file")

// catalogSpecs builds the test catalog: zoo models at distinct parameter
// sizes, each under a single all-on-master group plan (the mesh cares
// about sizes and placement, not partition structure).
func catalogSpecs(t testing.TB, names ...string) []ModelSpec {
	t.Helper()
	var specs []ModelSpec
	for _, name := range names {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		units, err := partition.Linearize(g)
		if err != nil {
			t.Fatal(err)
		}
		plan := &partition.Plan{Model: name, Groups: []partition.GroupPlan{{
			First: 0, Last: len(units) - 1,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}}}
		if err := plan.Validate(units); err != nil {
			t.Fatal(err)
		}
		specs = append(specs, ModelSpec{ID: name, Units: units, Plan: plan})
	}
	return specs
}

// meshPlatformCfg is the shared serving economics: pools stay warm across
// the replay (residency, not idle expiry, is the study's signal) and
// warmth bills a cold start per instance.
func meshPlatformCfg() platform.Config {
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 120000
	cfg.PrewarmMs = cfg.ColdStartMs
	return cfg
}

// testCatalog's measured resident sizes (~8/12/18/18 MB) total past the
// golden pool's 2 x 24 MB, so the full catalog can never stay resident
// and the LRU must evict.
var testCatalog = []string{"mobilenet-mini", "rnn-tiny2", "rnn-tiny4", "mobilenet-mini-w2"}

// meshTrace is the shared seeded Zipf multi-model trace.
func meshTrace(t testing.TB) []workload.ModelArrival {
	t.Helper()
	spec := workload.ZipfSpec{Models: testCatalog, S: 1}
	arrivals, err := workload.MultiModel(rand.New(rand.NewSource(42)), spec, 2, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// replay runs one mesh-routed gateway replay on a fresh platform.
func replay(t testing.TB, cfg Config) (*gateway.LoadReport, []gateway.Outcome, *Report) {
	t.Helper()
	env := simnet.NewEnv()
	p := platform.New(env, meshPlatformCfg(), 7)
	m, err := New(p, cfg, catalogSpecs(t, testCatalog...))
	if err != nil {
		t.Fatal(err)
	}
	arrivals := meshTrace(t)
	rep, outs, err := gateway.Run(m, workload.Times(arrivals), gateway.Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       2000,
		Model:       func(i int) string { return arrivals[i].Model },
		Router:      m,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, outs, m.Report()
}

// outcomeDigest hashes every outcome's observable fields so replays can be
// compared bit-for-bit without storing each outcome in the golden file.
func outcomeDigest(outs []gateway.Outcome) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%d|%q|%.6f|%.6f|%.6f|%.6f|%d|%v|%v|%v|%q\n",
			o.ID, o.Model, o.ArrivalMs, o.QueueMs, o.LatencyMs, o.TotalMs,
			o.BilledMs, o.ColdStart, o.Shed, o.SLOOK, o.Err)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// lruConfig is the golden replay's pool: two instances sized so the
// catalog does not fit resident all at once, forcing LRU evictions.
func lruConfig() Config {
	return Config{Instances: 2, InstanceMemMB: 24, MaxPerInstance: 4}
}

// TestGoldenMeshReport pins the gateway load report, the mesh report, and
// the outcome digest of a seeded Zipf replay — and asserts the replay is
// bit-for-bit deterministic across repeat runs and host kernel-parallelism
// settings.
func TestGoldenMeshReport(t *testing.T) {
	type run struct {
		text   string
		digest string
	}
	var runs []run
	for _, workers := range []int{1, 4, 1} {
		restore := par.SetParallelism(workers)
		rep, outs, mrep := replay(t, lruConfig())
		restore()
		gb, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		mb, err := mrep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{text: string(gb) + "\n" + string(mb), digest: outcomeDigest(outs)})
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].text != runs[0].text {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, runs[i].text, runs[0].text)
		}
		if runs[i].digest != runs[0].digest {
			t.Fatalf("replay %d outcome digest diverged: %s vs %s", i, runs[i].digest, runs[0].digest)
		}
	}

	got := runs[0].text + "digest " + runs[0].digest + "\n"
	goldenPath := filepath.Join("testdata", "mesh_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("mesh report diverges from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestMeshLRUBehaviour checks the placement layer's accounting on the
// golden replay: hits dominate under Zipf skew, the undersized pool
// evicts, every routed query is classified exactly once, and the
// per-model outcome counts surface in the gateway report.
func TestMeshLRUBehaviour(t *testing.T) {
	rep, outs, mrep := replay(t, lruConfig())
	if mrep.Queries != mrep.Hits+mrep.Misses {
		t.Fatalf("hit/miss accounting leaks: %d queries, %d hits, %d misses", mrep.Queries, mrep.Hits, mrep.Misses)
	}
	if mrep.Hits == 0 || mrep.Misses == 0 {
		t.Fatalf("replay should mix hits and misses, got %d/%d", mrep.Hits, mrep.Misses)
	}
	if mrep.HitPct < 50 {
		t.Errorf("Zipf skew should make residency pay: hit rate %.1f%% < 50%%", mrep.HitPct)
	}
	if mrep.Evictions == 0 {
		t.Error("undersized pool should evict")
	}
	if mrep.Loads == 0 || mrep.LoadedMB == 0 || mrep.MeanLoadMs == 0 {
		t.Errorf("loads unaccounted: %d loads, %.1f MB, %.1f ms mean", mrep.Loads, mrep.LoadedMB, mrep.MeanLoadMs)
	}
	// Admitted (non-shed) queries route through the mesh exactly once.
	admitted := 0
	for _, o := range outs {
		if !o.Shed {
			admitted++
		}
		if o.Model == "" {
			t.Fatalf("query %d missing its model tag", o.ID)
		}
	}
	if mrep.Queries != admitted {
		t.Errorf("mesh saw %d queries, gateway admitted %d", mrep.Queries, admitted)
	}
	if len(rep.ByModel) != len(testCatalog) {
		t.Fatalf("per-model outcome counts missing: %+v", rep.ByModel)
	}
	var served int
	for _, ms := range rep.ByModel {
		served += ms.Served
	}
	if served != rep.Served {
		t.Errorf("ByModel served %d != report served %d", served, rep.Served)
	}
	for _, mr := range mrep.PerModel {
		if mr.Loads > 0 && mr.MeasuredMB == 0 {
			t.Errorf("%s loaded but never measured", mr.ID)
		}
		if mr.MeasuredMB > 0 && mr.MeasuredMB < mr.PredictedMB {
			t.Errorf("%s: measured %.2f MB below predicted %.2f MB — extents should include activations",
				mr.ID, mr.MeasuredMB, mr.PredictedMB)
		}
	}
}

// TestMeshNoCacheBaseline: with residency disabled every query is a miss
// and pays a load, and the hit rate is exactly zero.
func TestMeshNoCacheBaseline(t *testing.T) {
	cfg := lruConfig()
	cfg.NoCache = true
	_, outs, mrep := replay(t, cfg)
	if mrep.Hits != 0 {
		t.Fatalf("no-cache baseline recorded %d hits", mrep.Hits)
	}
	admitted := 0
	for _, o := range outs {
		if !o.Shed {
			admitted++
		}
	}
	if mrep.Misses != admitted || mrep.Loads != admitted {
		t.Fatalf("no-cache should load per query: %d misses, %d loads, %d admitted",
			mrep.Misses, mrep.Loads, admitted)
	}
}

// TestMeshSharedLoad: queries for the same cold model arriving while its
// load is in flight wait for that load instead of fetching duplicates.
func TestMeshSharedLoad(t *testing.T) {
	env := simnet.NewEnv()
	p := platform.New(env, meshPlatformCfg(), 7)
	m, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "mobilenet-mini"))
	if err != nil {
		t.Fatal(err)
	}
	// Three coincident-arrival queries (1 ns apart) for one cold model.
	arrivals := []time.Duration{0, time.Nanosecond, 2 * time.Nanosecond}
	_, _, err = gateway.Run(m, arrivals, gateway.Config{
		MaxInFlight: 3,
		SLOMs:       5000,
		Model:       func(int) string { return "mobilenet-mini" },
		Router:      m,
	})
	if err != nil {
		t.Fatal(err)
	}
	mrep := m.Report()
	if mrep.Loads != 1 {
		t.Fatalf("concurrent cold queries fetched %d copies, want 1", mrep.Loads)
	}
	if mrep.LoadWaits != 2 {
		t.Fatalf("expected 2 queries to wait on the in-flight load, got %d", mrep.LoadWaits)
	}
	if mrep.Hits != 0 || mrep.Misses != 3 {
		t.Fatalf("all three queries missed the cold cache: %d hits, %d misses", mrep.Hits, mrep.Misses)
	}
}

// TestMeshErrors covers the typed failure modes and constructor
// validation.
func TestMeshErrors(t *testing.T) {
	env := simnet.NewEnv()
	p := platform.New(env, meshPlatformCfg(), 7)
	specs := catalogSpecs(t, "mobilenet-mini")

	if _, err := New(p, Config{Instances: 0, InstanceMemMB: 64}, specs); err == nil {
		t.Error("want instance-count validation error")
	}
	if _, err := New(p, Config{Instances: 1, InstanceMemMB: 0}, specs); err == nil {
		t.Error("want memory validation error")
	}
	if _, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, nil); err == nil {
		t.Error("want empty-catalog error")
	}
	if _, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, append(catalogSpecs(t, "rnn-tiny2"), specs[0], specs[0])); err == nil {
		t.Error("want duplicate-ID error")
	}

	m, err := New(p, Config{Instances: 1, InstanceMemMB: 1}, specs)
	if err != nil {
		t.Fatal(err)
	}
	var routeErr error
	env.Go("client", func(proc *simnet.Proc) {
		_, _, routeErr = m.Acquire(proc, "mobilenet-mini")
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(routeErr, ErrNoCapacity) {
		t.Errorf("1 MB instance should reject the model, got %v", routeErr)
	}

	env2 := simnet.NewEnv()
	p2 := platform.New(env2, meshPlatformCfg(), 7)
	m2, err := New(p2, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "mobilenet-mini"))
	if err != nil {
		t.Fatal(err)
	}
	env2.Go("client", func(proc *simnet.Proc) {
		_, _, routeErr = m2.Acquire(proc, "nope")
	})
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(routeErr, ErrUnknownModel) {
		t.Errorf("want ErrUnknownModel, got %v", routeErr)
	}
	if _, _, err := m2.ServeBatch(nil, nil, 1, false); err == nil {
		t.Error("mesh.ServeBatch must refuse direct serving")
	}
	if err := m2.Prewarm(); err == nil {
		t.Error("mesh.Prewarm must refuse pool-level prewarming")
	}
	if len(m2.order) != 1 || m2.order[0].spec.ID != "mobilenet-mini" || m2.models["mobilenet-mini"].dep == nil {
		t.Error("the one-model catalog is not indexed with its deployment")
	}
}

// TestMeshSingleModelServePath: once a single-model catalog is resident,
// hit queries serve through the exact same deployment path as a plain
// gateway replay — warm serve latencies match bit-for-bit.
func TestMeshSingleModelServePath(t *testing.T) {
	arrivals := []time.Duration{0, 2 * time.Second, 4 * time.Second, 6 * time.Second}
	gcfg := gateway.Config{MaxInFlight: 2, QueueCap: 4, SLOMs: 5000}

	// Plain path: a deployment on its own platform, prewarmed by the
	// first query's cold start.
	env := simnet.NewEnv()
	p := platform.New(env, meshPlatformCfg(), 7)
	specs := catalogSpecs(t, "rnn-tiny2")
	d, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, specs)
	if err != nil {
		t.Fatal(err)
	}
	dep := d.models["rnn-tiny2"].dep
	_, plain, err := gateway.Run(dep, arrivals, gcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Mesh path: same platform seed, same arrivals, routed.
	env2 := simnet.NewEnv()
	p2 := platform.New(env2, meshPlatformCfg(), 7)
	m, err := New(p2, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "rnn-tiny2"))
	if err != nil {
		t.Fatal(err)
	}
	mcfg := gcfg
	mcfg.Model = func(int) string { return "rnn-tiny2" }
	mcfg.Router = m
	_, routed, err := gateway.Run(m, arrivals, mcfg)
	if err != nil {
		t.Fatal(err)
	}

	// Query 0 differs by design (cold start vs load); every warm query
	// after it must serve identically.
	for i := 1; i < len(arrivals); i++ {
		if plain[i].LatencyMs != routed[i].LatencyMs {
			t.Errorf("query %d: warm serve latency diverged: plain %.3f ms, routed %.3f ms",
				i, plain[i].LatencyMs, routed[i].LatencyMs)
		}
	}
	if m.Report().Hits != len(arrivals)-1 {
		t.Errorf("single-model catalog should hit after the first load, got %d hits", m.Report().Hits)
	}
}

// TestMeshConfigValidation covers the gateway-side coupling rules.
func TestMeshConfigValidation(t *testing.T) {
	env := simnet.NewEnv()
	p := platform.New(env, meshPlatformCfg(), 7)
	m, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "mobilenet-mini"))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := gateway.Run(m, []time.Duration{0}, gateway.Config{
		MaxInFlight: 1, Router: m,
	}); err == nil {
		t.Error("Router without Model must be rejected")
	}
	if _, _, err := gateway.Run(m, []time.Duration{0}, gateway.Config{
		MaxInFlight: 1, Model: func(int) string { return "x" },
	}); err == nil {
		t.Error("Model without Router must be rejected")
	}
}

// TestMeshReportRendering sanity-checks the human-readable table.
func TestMeshReportRendering(t *testing.T) {
	_, _, mrep := replay(t, lruConfig())
	table := mrep.Table()
	for _, name := range testCatalog {
		if !containsStr(table, name) {
			t.Errorf("table missing %s:\n%s", name, table)
		}
	}
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestMeshWarmSets: a mesh's warm sets are its models' together — none
// before any load, and after each model's first query the set its load
// warmed, back in the pool once the query settled. A gateway polls them only
// under a prewarming policy, which no mesh replay here runs.
func TestMeshWarmSets(t *testing.T) {
	ids := []string{"mobilenet-mini", "rnn-tiny2"}
	_, err := platform.Run(meshPlatformCfg(), 1, func(p *platform.Platform, proc *simnet.Proc) error {
		m, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, ids...))
		if err != nil {
			return err
		}
		if n := m.WarmSets(); n != 0 {
			t.Errorf("%d warm sets before any load", n)
		}
		for i, id := range ids {
			b, lease, err := m.Acquire(proc, id)
			if err != nil {
				return err
			}
			if _, _, err := b.ServeBatch(proc, nil, 1, false); err != nil {
				return err
			}
			lease.Release()
			if n, own := m.WarmSets(), m.models[id].dep.WarmSets(); n != i+1 || own != 1 {
				t.Errorf("after %s's first query: %d warm sets across the catalog, %d its own; want %d and 1", id, n, own, i+1)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
