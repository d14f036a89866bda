package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math/rand"
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

// The sim_* workloads replay a seeded arrival trace on the virtual clock.
// What they simulate is pinned (the digest below); what the benchmark
// measures is how long the simulator, platform, runtime and gateway take
// to do it in wall-clock time. Both run ShapeOnly: no kernel executes.

// goldenSeed is the seed whose digests are checked in; any other seed is
// checked for self-consistency against its own warm-up op.
const goldenSeed = 1

//go:embed testdata/golden.json
var goldenJSON []byte

// golden returns the checked-in digest for a sim workload at goldenSeed.
func golden(workload string) (string, error) {
	var g map[string]string
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return "", fmt.Errorf("testdata/golden.json: %w", err)
	}
	d, ok := g[workload]
	if !ok {
		return "", fmt.Errorf("testdata/golden.json: no digest for %s", workload)
	}
	return d, nil
}

// digestCheck pins a sim workload's virtual-clock behaviour: every op of a
// run must produce the same digest, and at goldenSeed that digest must be
// the checked-in one.
type digestCheck struct {
	workload string
	seed     int64
	want     string
}

func (c *digestCheck) check(got string) error {
	if c.want == "" {
		c.want = got
		if c.seed == goldenSeed {
			g, err := golden(c.workload)
			if err != nil {
				return err
			}
			c.want = g
		}
	}
	if got != c.want {
		return fmt.Errorf("%s: report digest %q, want %q", c.workload, got, c.want)
	}
	return nil
}

func loadDigest(r *gateway.LoadReport) string {
	return fmt.Sprintf("queries=%d served=%d shed=%d faulted=%d p50_ms=%.3f billed_ms=%d prewarm_billed_ms=%d",
		r.Queries, r.Served, r.Shed, r.Faulted, r.P50Ms, r.BilledMs, r.PrewarmBilledMs)
}

// simReplay: one op deploys resnet34's latency-optimal plan on a fresh
// simulated platform and replays a bursty trace through the gateway.
type simReplay struct {
	inProcess
	arrivals []time.Duration
	spec     workload.BurstSpec
	digest   digestCheck

	// Built by start, dropped by stop.
	units  []*partition.Unit
	plan   *partition.Plan
	cfg    platform.Config
	warmMs float64
}

// Replay sizing: 2 qps base with 4 s bursts at 20 qps every 20 s is the
// load sweep's hardest cell; 570 s of it is ≈3.2 k arrivals, which keeps an
// op near 0.15 s so a run completes well over 120 of them.
const (
	replayHorizon     = 570 * time.Second
	replayMaxInFlight = 16
)

func newSimReplay(seed int64) (*simReplay, error) {
	w := &simReplay{
		spec: workload.BurstSpec{
			BaseRate: 2, BurstRate: 20,
			Period: 20 * time.Second, BurstLen: 4 * time.Second,
		},
		digest: digestCheck{workload: "sim_replay", seed: seed},
	}
	var err error
	w.arrivals, err = workload.Bursty(rand.New(rand.NewSource(seed)), w.spec, replayHorizon)
	return w, err
}

func (w *simReplay) start() error {
	g, err := models.ByName("resnet34")
	if err != nil {
		return err
	}
	if w.units, err = partition.Linearize(g); err != nil {
		return err
	}
	m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
	if err != nil {
		return err
	}
	var pred perf.PlanPrediction
	if w.plan, pred, err = core.LatencyOptimal(m, w.units, core.Config{}); err != nil {
		return err
	}
	w.warmMs = pred.LatencyMs
	// The load sweep's serving economics: pools drain between bursts and
	// prewarming is billed.
	w.cfg = m.Platform()
	w.cfg.WarmIdleMs = 8000
	w.cfg.PrewarmMs = w.cfg.ColdStartMs
	return w.op(0, nil)
}

func (w *simReplay) stop() { w.units, w.plan = nil, nil }

// gatewayConfig is the load sweep's: a bounded queue behind 16 slots, a
// deadline that a warm query meets and a cold one misses, and burst-aware
// prewarming.
func (w *simReplay) gatewayConfig() gateway.Config {
	return gateway.Config{
		MaxInFlight: replayMaxInFlight,
		QueueCap:    2 * replayMaxInFlight,
		SLOMs:       w.warmMs + 0.6*w.cfg.ColdStartMs,
		Policy:      gateway.BurstAware{Spec: w.spec, EstServeMs: w.warmMs, LeadMs: 500},
	}
}

func (w *simReplay) op(_ int, sp *opSpans) error {
	var (
		p   *platform.Platform
		d   *runtime.Deployment
		rep *gateway.LoadReport
		err error
	)
	sp.do("platform_new", func() { p = platform.New(simnet.NewEnv(), w.cfg, 1) })
	sp.do("runtime_deploy", func() { d, err = runtime.Deploy(p, w.units, w.plan, runtime.ShapeOnly) })
	if err != nil {
		return err
	}
	sp.do("runtime_prewarm", func() { err = d.Prewarm() })
	if err != nil {
		return err
	}
	sp.do("gateway_run", func() { rep, _, err = gateway.Run(d, w.arrivals, w.gatewayConfig()) })
	if err != nil {
		return err
	}
	sp.do("report_json", func() { _, err = json.Marshal(rep) })
	if err != nil {
		return err
	}
	return w.digest.check(loadDigest(rep))
}

// inProcess is the accounting of a system under test that runs inside the
// benchmark's own process.
type inProcess struct{}

func (inProcess) cpu() (time.Duration, error) { return selfCPU() }
func (inProcess) peakRSSMB() (float64, error) { return peakRSSMB("self") }

func (w *simReplay) spanNames() []string { return simReplaySpans }
func (w *simMesh) spanNames() []string   { return simMeshSpans }

var (
	simReplaySpans = []string{"platform_new", "runtime_deploy", "runtime_prewarm", "gateway_run", "report_json"}
	simMeshSpans   = []string{"platform_new", "mesh_new", "gateway_run", "mesh_report"}
)

// simMesh: one op builds a fresh mesh over the six-model zoo and replays a
// Zipf-tagged trace through the gateway's router path.
type simMesh struct {
	inProcess
	arrivals []workload.ModelArrival
	times    []time.Duration
	digest   digestCheck

	specs []mesh.ModelSpec // built by start, dropped by stop
}

// meshZoo is internal/bench's mesh sweep catalog in popularity-rank order,
// and the pool is that sweep's tightest: 2 instances of 36 MB cannot hold
// the catalog, so the replay keeps loading, sharing loads and evicting.
// 2400 s at 4 qps is ≈9.6 k arrivals (≈0.2 s per op).
var meshZoo = []string{
	"mobilenet-mini", "rnn-tiny2", "mobilenet-mini-w2",
	"rnn-tiny4", "rnn-tiny6", "mobilenet-mini-w3",
}

const (
	meshHorizon   = 2400 * time.Second
	meshRate      = 4
	meshInstances = 2
	meshMemMB     = 36
)

func newSimMesh(seed int64) (*simMesh, error) {
	w := &simMesh{digest: digestCheck{workload: "sim_mesh", seed: seed}}
	var err error
	w.arrivals, err = workload.MultiModel(rand.New(rand.NewSource(seed)),
		workload.ZipfSpec{Models: meshZoo, S: 1.1}, meshRate, meshHorizon)
	w.times = workload.Times(w.arrivals)
	return w, err
}

// meshSpecs builds catalog entries under a single all-on-master group plan,
// as internal/bench's mesh sweep does.
func meshSpecs(names []string) ([]mesh.ModelSpec, error) {
	specs := make([]mesh.ModelSpec, 0, len(names))
	for _, name := range names {
		g, err := models.ByName(name)
		if err != nil {
			return nil, err
		}
		units, err := partition.Linearize(g)
		if err != nil {
			return nil, err
		}
		plan := &partition.Plan{Model: name, Groups: []partition.GroupPlan{{
			First: 0, Last: len(units) - 1,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}}}
		if err := plan.Validate(units); err != nil {
			return nil, err
		}
		specs = append(specs, mesh.ModelSpec{ID: name, Units: units, Plan: plan})
	}
	return specs, nil
}

// meshPlatformCfg is the mesh sweep's serving economics: pools stay warm
// and every model load bills a cold start's worth of warm-up.
func meshPlatformCfg() platform.Config {
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 300000
	cfg.PrewarmMs = cfg.ColdStartMs
	return cfg
}

func (w *simMesh) start() error {
	var err error
	if w.specs, err = meshSpecs(meshZoo); err != nil {
		return err
	}
	return w.op(0, nil)
}

func (w *simMesh) stop() { w.specs = nil }

// gatewayConfig routes every arrival through m by its model tag.
func (w *simMesh) gatewayConfig(m *mesh.Mesh) gateway.Config {
	return gateway.Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       600,
		Model:       func(i int) string { return w.arrivals[i].Model },
		Router:      m,
	}
}

func (w *simMesh) op(_ int, sp *opSpans) error {
	var (
		p    *platform.Platform
		m    *mesh.Mesh
		rep  *gateway.LoadReport
		mrep *mesh.Report
		err  error
	)
	sp.do("platform_new", func() { p = platform.New(simnet.NewEnv(), meshPlatformCfg(), 1) })
	sp.do("mesh_new", func() {
		m, err = mesh.New(p, mesh.Config{
			Instances: meshInstances, InstanceMemMB: meshMemMB, MaxPerInstance: 4,
		}, w.specs)
	})
	if err != nil {
		return err
	}
	sp.do("gateway_run", func() { rep, _, err = gateway.Run(m, w.times, w.gatewayConfig(m)) })
	if err != nil {
		return err
	}
	sp.do("mesh_report", func() {
		mrep = m.Report()
		_, err = mrep.JSON()
	})
	if err != nil {
		return err
	}
	return w.digest.check(fmt.Sprintf("%s hits=%d loads=%d load_waits=%d evictions=%d",
		loadDigest(rep), mrep.Hits, mrep.Loads, mrep.LoadWaits, mrep.Evictions))
}
