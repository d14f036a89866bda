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

// BenchmarkReplayResnet34 replays a bursty ≈3.2 k-arrival trace (2 qps with
// 4 s bursts at 20 qps every 20 s, 570 s) through the gateway onto resnet34's
// latency-optimal plan, ShapeOnly, with billed burst-aware prewarming.
func BenchmarkReplayResnet34(b *testing.B) {
	g, err := models.ByName("resnet34")
	if err != nil {
		b.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		b.Fatal(err)
	}
	m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
	if err != nil {
		b.Fatal(err)
	}
	plan, pred, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		b.Fatal(err)
	}
	cfg := m.Platform()
	cfg.WarmIdleMs = 8000
	cfg.PrewarmMs = cfg.ColdStartMs
	spec := workload.BurstSpec{BaseRate: 2, BurstRate: 20, Period: 20 * time.Second, BurstLen: 4 * time.Second}
	arrivals, err := workload.Bursty(rand.New(rand.NewSource(1)), spec, 570*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	gcfg := gateway.Config{
		MaxInFlight: 16,
		QueueCap:    32,
		SLOMs:       pred.LatencyMs + 0.6*cfg.ColdStartMs,
		Policy:      gateway.BurstAware{Spec: spec, EstServeMs: pred.LatencyMs, LeadMs: 500},
	}
	want := replayGolden(b, "sim_replay")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := platform.New(simnet.NewEnv(), cfg, 1)
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			b.Fatal(err)
		}
		if err := d.Prewarm(); err != nil {
			b.Fatal(err)
		}
		rep, _, err := gateway.Run(d, arrivals, gcfg)
		if err != nil {
			b.Fatal(err)
		}
		if got := loadDigest(rep); got != want {
			b.Fatalf("report digest %q, want %q", got, want)
		}
	}
}

// BenchmarkReplayMesh replays a Zipf(1.1) ≈9.6 k-arrival trace (4 qps, 2400
// s) over a six-model catalog on two 36 MB instances, which cannot hold it:
// the mesh keeps loading, sharing loads and evicting.
func BenchmarkReplayMesh(b *testing.B) {
	zoo := []string{"mobilenet-mini", "rnn-tiny2", "mobilenet-mini-w2", "rnn-tiny4", "rnn-tiny6", "mobilenet-mini-w3"}
	specs := make([]mesh.ModelSpec, len(zoo))
	for i, name := range zoo {
		g, err := models.ByName(name)
		if err != nil {
			b.Fatal(err)
		}
		units, err := partition.Linearize(g)
		if err != nil {
			b.Fatal(err)
		}
		specs[i] = mesh.ModelSpec{ID: name, Units: units, Plan: partition.DefaultPlan(name, units)}
	}
	arrivals, err := workload.MultiModel(rand.New(rand.NewSource(1)), workload.ZipfSpec{Models: zoo, S: 1.1}, 4, 2400*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	times := workload.Times(arrivals)
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 300000
	cfg.PrewarmMs = cfg.ColdStartMs
	want := replayGolden(b, "sim_mesh")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := platform.New(simnet.NewEnv(), cfg, 1)
		m, err := mesh.New(p, mesh.Config{Instances: 2, InstanceMemMB: 36, MaxPerInstance: 4}, specs)
		if err != nil {
			b.Fatal(err)
		}
		rep, _, err := gateway.Run(m, times, gateway.Config{
			MaxInFlight: 4,
			QueueCap:    8,
			SLOMs:       600,
			Model:       func(i int) string { return arrivals[i].Model },
			Router:      m,
		})
		if err != nil {
			b.Fatal(err)
		}
		mrep := m.Report()
		got := fmt.Sprintf("%s hits=%d loads=%d load_waits=%d evictions=%d",
			loadDigest(rep), mrep.Hits, mrep.Loads, mrep.LoadWaits, mrep.Evictions)
		if got != want {
			b.Fatalf("report digest %q, want %q", got, want)
		}
	}
}
