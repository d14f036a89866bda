package gateway_test

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/mesh"
	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/workload"
)

// The two replay benchmarks are benchmark/'s sim_replay and sim_mesh
// workloads as go-test benchmarks: the same traces, platforms and gateway
// configurations at seed 1, and every op's report digest checked against
// benchmark/testdata/golden.json, so a profiling run is a correctness run.
// Where a replay's wall-clock goes:
//
//	go test ./internal/gateway -run xxx -bench ReplayMesh -benchtime 40x -benchmem -cpuprofile cpu.pprof

// replayGolden returns the checked-in digest of a sim workload at seed 1.
func replayGolden(b *testing.B, workload string) string {
	b.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "..", "benchmark", "testdata", "golden.json"))
	if err != nil {
		b.Fatal(err)
	}
	var g map[string]string
	if err := json.Unmarshal(raw, &g); err != nil {
		b.Fatal(err)
	}
	return g[workload]
}

func loadDigest(r *gateway.LoadReport) string {
	return fmt.Sprintf("queries=%d served=%d shed=%d faulted=%d p50_ms=%.3f billed_ms=%d prewarm_billed_ms=%d",
		r.Queries, r.Served, r.Shed, r.Faulted, r.P50Ms, r.BilledMs, r.PrewarmBilledMs)
}

// resnet34Replay is sim_replay's replay over the first span of its bursty
// trace (2 qps with 4 s bursts at 20 qps every 20 s): resnet34's
// latency-optimal plan, ShapeOnly, with billed burst-aware prewarming. It
// returns the arrivals and a function that runs one replay on a fresh
// platform and returns its report digest.
func resnet34Replay(tb testing.TB, span time.Duration) ([]time.Duration, func() string) {
	tb.Helper()
	g, err := models.ByName("resnet34")
	if err != nil {
		tb.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		tb.Fatal(err)
	}
	m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
	if err != nil {
		tb.Fatal(err)
	}
	plan, pred, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	cfg := m.Platform()
	cfg.WarmIdleMs = 8000
	cfg.PrewarmMs = cfg.ColdStartMs
	spec := workload.BurstSpec{BaseRate: 2, BurstRate: 20, Period: 20 * time.Second, BurstLen: 4 * time.Second}
	arrivals, err := workload.Bursty(rand.New(rand.NewSource(1)), spec, span)
	if err != nil {
		tb.Fatal(err)
	}
	gcfg := gateway.Config{
		MaxInFlight: 16,
		QueueCap:    32,
		SLOMs:       pred.LatencyMs + 0.6*cfg.ColdStartMs,
		Policy:      gateway.BurstAware{Spec: spec, EstServeMs: pred.LatencyMs, LeadMs: 500},
	}
	return arrivals, func() string {
		p := platform.New(simnet.NewEnv(), cfg, 1)
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			tb.Fatal(err)
		}
		if err := d.Prewarm(); err != nil {
			tb.Fatal(err)
		}
		rep, _, err := gateway.Run(d, arrivals, gcfg)
		if err != nil {
			tb.Fatal(err)
		}
		return loadDigest(rep)
	}
}

// meshReplay is sim_mesh's replay over the first span of its Zipf(1.1)
// trace (4 qps) over a six-model catalog on two 36 MB instances, which
// cannot hold it: the mesh keeps loading, sharing loads and evicting. It
// returns the arrival times and a function that runs one replay on a fresh
// platform and returns its report digest.
func meshReplay(tb testing.TB, span time.Duration) ([]time.Duration, func() string) {
	tb.Helper()
	zoo := []string{"mobilenet-mini", "rnn-tiny2", "mobilenet-mini-w2", "rnn-tiny4", "rnn-tiny6", "mobilenet-mini-w3"}
	specs := make([]mesh.ModelSpec, len(zoo))
	for i, name := range zoo {
		g, err := models.ByName(name)
		if err != nil {
			tb.Fatal(err)
		}
		units, err := partition.Linearize(g)
		if err != nil {
			tb.Fatal(err)
		}
		specs[i] = mesh.ModelSpec{ID: name, Units: units, Plan: partition.DefaultPlan(name, units)}
	}
	arrivals, err := workload.MultiModel(rand.New(rand.NewSource(1)), workload.ZipfSpec{Models: zoo, S: 1.1}, 4, span)
	if err != nil {
		tb.Fatal(err)
	}
	times := workload.Times(arrivals)
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 300000
	cfg.PrewarmMs = cfg.ColdStartMs
	return times, func() string {
		p := platform.New(simnet.NewEnv(), cfg, 1)
		m, err := mesh.New(p, mesh.Config{Instances: 2, InstanceMemMB: 36, MaxPerInstance: 4}, specs)
		if err != nil {
			tb.Fatal(err)
		}
		rep, _, err := gateway.Run(m, times, gateway.Config{
			MaxInFlight: 4,
			QueueCap:    8,
			SLOMs:       600,
			Model:       func(i int) string { return arrivals[i].Model },
			Router:      m,
		})
		if err != nil {
			tb.Fatal(err)
		}
		mrep := m.Report()
		return fmt.Sprintf("%s hits=%d loads=%d load_waits=%d evictions=%d",
			loadDigest(rep), mrep.Hits, mrep.Loads, mrep.LoadWaits, mrep.Evictions)
	}
}

// BenchmarkReplayResnet34 replays sim_replay's whole ≈3.2 k-arrival, 570 s
// trace.
func BenchmarkReplayResnet34(b *testing.B) {
	_, replay := resnet34Replay(b, 570*time.Second)
	want := replayGolden(b, "sim_replay")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := replay(); got != want {
			b.Fatalf("report digest %q, want %q", got, want)
		}
	}
}

// BenchmarkReplayMesh replays sim_mesh's whole ≈9.6 k-arrival, 2400 s trace.
func BenchmarkReplayMesh(b *testing.B) {
	_, replay := meshReplay(b, 2400*time.Second)
	want := replayGolden(b, "sim_mesh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := replay(); got != want {
			b.Fatalf("report digest %q, want %q", got, want)
		}
	}
}

// TestReplayAllocationsPerArrival holds what a replay allocates per arrival
// on sim_replay's and sim_mesh's paths, over the first 120 s of each trace
// (set-up included, as a replay pays it): 1.45 and 0.96 objects. A warm
// query allocates nothing, so what is left is what a fresh Env, platform,
// deployment and gateway make once per replay, spread over its arrivals:
// each process's coroutine (about nine objects, for the most processes in
// flight at once), each invocation, pass (with its bound caller body) and
// seat record and the free lists' and queues' first growth (records are
// recycled within a replay, not across replays), the deployment (mesh.New deploys six), the metric
// handles of a fresh registry, and in sim_mesh one promise per model per
// instance for its loads. They were 18.9 and 7.7 while every query
// allocated its Ctx, promises, process bodies, request, reply, tally and
// release closure, and every load its residency; 22.2 and 10.8 while each
// arrival had a closure of its own, each master invocation a process and a
// promise, and an idle control loop polled the warm pools every tick. One
// object per served query back adds about one per arrival, so each budget
// also fails once it sits 0.25 or more above what it measures.
func TestReplayAllocationsPerArrival(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const slack = 0.25
	for _, c := range []struct {
		name   string
		setup  func(testing.TB, time.Duration) ([]time.Duration, func() string)
		budget float64
	}{
		{"sim_replay", resnet34Replay, 1.5},
		{"sim_mesh", meshReplay, 1.0},
	} {
		arrivals, replay := c.setup(t, 120*time.Second)
		replay()
		perArrival := testing.AllocsPerRun(3, func() { replay() }) / float64(len(arrivals))
		t.Logf("%s: %.2f objects per arrival over %d arrivals", c.name, perArrival, len(arrivals))
		if perArrival > c.budget || c.budget-perArrival >= slack {
			t.Errorf("%s: a replay allocates %.2f objects per arrival, budget %.2f with less slack than %.2f", c.name, perArrival, c.budget, slack)
		}
	}
}
