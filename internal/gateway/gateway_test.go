package gateway

import (
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gillis/internal/batching"
	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace/tracetest"
	"gillis/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the load-report golden file")

// tinyCNN is the runtime test model: stem conv+bn+relu, maxpool, residual
// block, avgpool.
func tinyCNN(t *testing.T) []*partition.Unit {
	t.Helper()
	g := graph.New("tinycnn", []int{3, 24, 24})
	g.MustAdd(nn.NewConv2D("stem", 3, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 8))
	g.MustAdd(nn.NewReLU("stem_relu"))
	pool := g.MustAdd(nn.NewMaxPool2D("pool", 3, 2, 1))
	c1 := g.MustAdd(nn.NewConv2D("b_conv1", 8, 8, 3, 1, 1), pool)
	b1 := g.MustAdd(nn.NewBatchNorm("b_bn1", 8), c1)
	r1 := g.MustAdd(nn.NewReLU("b_relu1"), b1)
	c2 := g.MustAdd(nn.NewConv2D("b_conv2", 8, 8, 3, 1, 1), r1)
	b2 := g.MustAdd(nn.NewBatchNorm("b_bn2", 8), c2)
	add := g.MustAdd(nn.NewAdd("b_add"), b2, pool)
	g.MustAdd(nn.NewReLU("b_relu2"), add)
	g.MustAdd(nn.NewAvgPool2D("avg", 2, 2))
	g.Init(42)
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func twoGroupPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: 3, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

// burstTrace is the shared seeded 60 s burst trace.
func burstSpec() workload.BurstSpec {
	return workload.BurstSpec{BaseRate: 0.4, BurstRate: 3, Period: 20 * time.Second, BurstLen: 5 * time.Second}
}

func burstTrace(t *testing.T) []time.Duration {
	t.Helper()
	arrivals, err := workload.Bursty(rand.New(rand.NewSource(42)), burstSpec(), 60*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return arrivals
}

// deploy builds a fresh platform + deployment for one replay.
func deploy(t *testing.T, cfg platform.Config, seed int64, mode runtime.ExecMode, opts ...runtime.DeployOption) *runtime.Deployment {
	t.Helper()
	units := tinyCNN(t)
	plan := twoGroupPlan(t, units)
	env := simnet.NewEnv()
	p := platform.New(env, cfg, seed)
	d, err := runtime.Deploy(p, units, plan, mode, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// outcomeDigest hashes every outcome's observable fields so two replays can
// be compared bit-for-bit without storing each outcome in the golden file.
func outcomeDigest(outs []Outcome) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%d|%.6f|%.6f|%.6f|%.6f|%d|%v|%v|%v|%q\n",
			o.ID, o.ArrivalMs, o.QueueMs, o.LatencyMs, o.TotalMs,
			o.BilledMs, o.ColdStart, o.Shed, o.SLOOK, o.Err)
		if o.Output != nil {
			for _, v := range o.Output.Data() {
				fmt.Fprintf(h, "%x,", v)
			}
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

func goldenReplay(t *testing.T) (*LoadReport, []Outcome) {
	t.Helper()
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 8000 // pools drain between the 20 s-apart bursts
	cfg.PrewarmMs = cfg.ColdStartMs
	d := deploy(t, cfg, 7, runtime.Real)
	x := tensor.Rand(rand.New(rand.NewSource(3)), 1, 3, 24, 24)
	rep, outs, err := Run(d, burstTrace(t), Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       900,
		Input:       func(int) *tensor.Tensor { return x },
		Policy:      BurstAware{Spec: burstSpec(), EstServeMs: 400, LeadMs: 500},
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep, outs
}

// TestGoldenLoadReport pins the full report of a seeded 60 s burst replay —
// and asserts the replay is bit-for-bit deterministic across repeat runs
// and host kernel-parallelism settings (Real-mode outputs included).
func TestGoldenLoadReport(t *testing.T) {
	type run struct {
		report string
		digest string
		outs   []Outcome
	}
	var runs []run
	for _, workers := range []int{1, 4, 1} {
		restore := par.SetParallelism(workers)
		rep, outs := goldenReplay(t)
		restore()
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{report: string(b) + "\n", digest: outcomeDigest(outs), outs: outs})
	}
	for i := 1; i < len(runs); i++ {
		if runs[i].report != runs[0].report {
			t.Fatalf("replay %d diverged:\n%s\nvs\n%s", i, runs[i].report, runs[0].report)
		}
		if runs[i].digest != runs[0].digest {
			t.Fatalf("replay %d outcome digest diverged: %s vs %s", i, runs[i].digest, runs[0].digest)
		}
		for j, o := range runs[i].outs {
			ref := runs[0].outs[j]
			if (o.Output == nil) != (ref.Output == nil) || (o.Output != nil && !tensor.Equal(o.Output, ref.Output)) {
				t.Fatalf("query %d output not bitwise-stable across kernel parallelism", j)
			}
		}
	}

	got := runs[0].report + "digest " + runs[0].digest + "\n"
	goldenPath := filepath.Join("testdata", "load_report.golden")
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
		t.Errorf("load report diverges from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestChaosReplayTraceInvariants runs the burst replay under injected
// faults with tracing on and checks every admitted query's span tree, plus
// exact billing reconciliation: per-span billed-ms across all traces must
// sum to the platform's billed total minus the autoscaler's prewarm pings
// (which no query span carries). The replay must run hedge races: a hedge
// loser settles after its attempt span ends, so this is where the hedge
// overhang mark reaches CheckWellFormed end to end.
func TestChaosReplayTraceInvariants(t *testing.T) {
	cfg := platform.AWSLambda()
	cfg.WarmIdleMs = 8000
	cfg.PrewarmMs = cfg.ColdStartMs
	cfg.Faults = platform.FaultProfile{FailureProb: 0.05, StragglerProb: 0.1, StragglerFactor: 3, EvictionProb: 0.03}
	d := deploy(t, cfg, 42, runtime.ShapeOnly,
		runtime.WithRetries(3, 25), runtime.WithHedging(95), runtime.WithMasterFallback())
	rep, outs, err := Run(d, burstTrace(t), Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       900,
		Traced:      true,
		Policy:      TargetConcurrency{Headroom: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served == 0 {
		t.Fatal("chaos replay served nothing")
	}
	var billedInTraces int64
	failedSpans, hedges := 0, 0
	for _, o := range outs {
		if o.BatchSize != 1 {
			t.Fatalf("query %d: batch size %d, want 1 whether served, shed or faulted", o.ID, o.BatchSize)
		}
		if o.Shed {
			if o.Trace != nil {
				t.Fatalf("query %d: shed queries must not reach the platform", o.ID)
			}
			continue
		}
		if o.Trace == nil {
			t.Fatalf("query %d: admitted query has no trace", o.ID)
		}
		tracetest.CheckWellFormed(t, o.Trace)
		failedSpans += tracetest.CheckFaultKinds(t, o.Trace)
		h, _ := tracetest.CheckHedges(t, o.Trace)
		hedges += h
		billedInTraces += tracetest.BilledMsSum(o.Trace)
	}
	if failedSpans == 0 {
		t.Error("fault injection was vacuous: no failed invocation spans")
	}
	if hedges == 0 {
		t.Error("the replay ran no hedge race: the hedge overhang went unchecked")
	}
	t.Logf("%d failed invocation spans, %d hedge races", failedSpans, hedges)
	p := d.Platform()
	if want := p.BilledMsTotal() - p.PrewarmBilledMs(); billedInTraces != want {
		t.Errorf("per-span billing across traces = %d ms, want platform total %d", billedInTraces, want)
	}
	if rep.PrewarmBilledMs == 0 {
		t.Error("reactive policy never prewarmed under load")
	}
}

// TestQueueAndShed pins the admission state machine: with one slot and one
// queue seat, the third and fourth back-to-back arrivals are shed.
func TestQueueAndShed(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	arrivals := []time.Duration{
		1 * time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond,
	}
	rep, outs, err := Run(d, arrivals, Config{MaxInFlight: 1, QueueCap: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || rep.Shed != 2 {
		t.Fatalf("served/shed = %d/%d, want 2/2: %+v", rep.Served, rep.Shed, rep)
	}
	if outs[0].Shed || outs[0].QueueMs != 0 {
		t.Errorf("query 0 should start immediately: %+v", outs[0])
	}
	if outs[1].Shed || outs[1].QueueMs <= 0 {
		t.Errorf("query 1 should wait in queue: %+v", outs[1])
	}
	for _, i := range []int{2, 3} {
		if !outs[i].Shed || outs[i].Err != ErrShed.Error() {
			t.Errorf("query %d should be shed with ErrShed: %+v", i, outs[i])
		}
	}
	for i, o := range outs {
		if o.BatchSize != 1 {
			t.Errorf("query %d: lone queries ride a unit of one, served or shed; got batch size %d", i, o.BatchSize)
		}
	}
	reg := d.Platform().Metrics()
	if got := reg.Counter("gateway.shed").Value(); got != 2 {
		t.Errorf("gateway.shed = %d, want 2", got)
	}
	if got := reg.Counter("gateway.admitted").Value(); got != 2 {
		t.Errorf("gateway.admitted = %d, want 2", got)
	}
	if got := reg.Counter("gateway.queries").Value(); got != 4 {
		t.Errorf("gateway.queries = %d, want 4", got)
	}
	if rep.MaxQueue != 1 {
		t.Errorf("max queue %d, want 1", rep.MaxQueue)
	}
}

// TestRunValidatesConfig covers the config error paths.
func TestRunValidatesConfig(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	if _, _, err := Run(d, nil, Config{MaxInFlight: 0}); err == nil {
		t.Error("MaxInFlight 0 must be rejected")
	}
	if _, _, err := Run(d, nil, Config{MaxInFlight: 1, QueueCap: -1}); err == nil {
		t.Error("negative QueueCap must be rejected")
	}
	// An empty trace is a valid degenerate replay.
	rep, outs, err := Run(d, nil, Config{MaxInFlight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 0 || len(outs) != 0 {
		t.Errorf("empty replay: %+v", rep)
	}
}

// TestPolicyTargets pins the three policies' arithmetic.
func TestPolicyTargets(t *testing.T) {
	obs := Observation{InFlight: 3, QueueLen: 2, WarmSets: 1}
	if got := (NonePolicy{}).Target(0, obs); got != 0 {
		t.Errorf("NonePolicy target %d, want 0", got)
	}
	if got := (TargetConcurrency{}).Target(0, obs); got != 5 {
		t.Errorf("TargetConcurrency target %d, want in-flight 3 + queue 2", got)
	}
	if got := (TargetConcurrency{Headroom: 2}).Target(0, obs); got != 7 {
		t.Errorf("TargetConcurrency+2 target %d, want 7", got)
	}
	spec := workload.BurstSpec{BaseRate: 1, BurstRate: 10, Period: 10 * time.Second, BurstLen: 2 * time.Second}
	ba := BurstAware{Spec: spec, EstServeMs: 500, LeadMs: 1000}
	// Inside a burst window: ceil(10 qps * 0.5 s) = 5.
	if got := ba.Target(1*time.Second, obs); got != 5 {
		t.Errorf("in-burst target %d, want 5", got)
	}
	// Mid-period, far from the next window: base rate only.
	if got := ba.Target(5*time.Second, obs); got != 1 {
		t.Errorf("off-burst target %d, want 1", got)
	}
	// Within LeadMs of the next window: burst rate already.
	if got := ba.Target(9500*time.Millisecond, obs); got != 5 {
		t.Errorf("lead-in target %d, want 5", got)
	}
	if got := (FixedPool{Sets: 4}).Target(0, obs); got != 4 {
		t.Errorf("FixedPool target %d, want 4", got)
	}
	for _, p := range []Policy{NonePolicy{}, TargetConcurrency{}, BurstAware{}, FixedPool{}} {
		if p.Name() == "" {
			t.Errorf("%T has no name", p)
		}
	}
}

// TestPrewarmPolicyCutsColdStarts compares NonePolicy against a reactive
// policy on the same seed: keeping instances warm must not increase cold
// starts, and must show up as prewarm spend.
func TestPrewarmPolicyCutsColdStarts(t *testing.T) {
	replay := func(pol Policy) *LoadReport {
		cfg := platform.AWSLambda()
		cfg.WarmIdleMs = 300 // shorter than the mean 500 ms arrival gap
		cfg.PrewarmMs = 100
		d := deploy(t, cfg, 5, runtime.ShapeOnly)
		arrivals, err := workload.Poisson(rand.New(rand.NewSource(9)), 2, 30*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		rep, _, err := Run(d, arrivals, Config{MaxInFlight: 4, QueueCap: 8, Policy: pol})
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	none := replay(NonePolicy{})
	react := replay(TargetConcurrency{Headroom: 1})
	if none.PrewarmBilledMs != 0 {
		t.Errorf("NonePolicy spent %d ms prewarming", none.PrewarmBilledMs)
	}
	if react.PrewarmBilledMs == 0 {
		t.Error("reactive policy never prewarmed")
	}
	if react.ColdStarts > none.ColdStarts {
		t.Errorf("reactive policy cold-started more than none: %d vs %d", react.ColdStarts, none.ColdStarts)
	}
	if react.ColdStartPct >= none.ColdStartPct && none.ColdStarts > 1 {
		t.Errorf("prewarming bought nothing: %.1f%% vs %.1f%% cold", react.ColdStartPct, none.ColdStartPct)
	}
}

// TestIdleGatewaySchedulesNoControlLoop: with no prewarming policy, batch
// former or controller to read the control tick, no control loop runs, so a
// replay's clock stops at its last settle instead of the next 100 ms tick.
// Each of the three still gets its ticks: its replay drains on a tick.
func TestIdleGatewaySchedulesNoControlLoop(t *testing.T) {
	arrivals := []time.Duration{30 * time.Millisecond, 75 * time.Millisecond, 410 * time.Millisecond}
	replay := func(cfg Config) (now time.Duration, lastMs float64) {
		d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
		cfg.MaxInFlight = 2
		_, outs, err := Run(d, arrivals, cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, o := range outs {
			lastMs = max(lastMs, o.ArrivalMs+o.TotalMs)
		}
		return d.Platform().Env().Now(), lastMs
	}
	if now, lastMs := replay(Config{}); math.Abs(durMs(now)-lastMs) > 1e-6 {
		t.Errorf("an idle replay drained at %v, its last settle was at %.6f ms", now, lastMs)
	}
	const tick = batching.TickMs * time.Millisecond
	ctl := &scriptCtl{brownFrom: time.Hour, brownTo: time.Hour, switchAt: time.Hour}
	for name, cfg := range map[string]Config{
		"policy":     {Policy: TargetConcurrency{}},
		"former":     {Batch: batching.Config{MaxBatch: 2, MaxDelay: 150 * time.Millisecond}},
		"controller": {Controller: ctl},
	} {
		if now, lastMs := replay(cfg); now%tick != 0 || durMs(now) < lastMs {
			t.Errorf("%s: the replay drained at %v, not on the first tick after its last settle at %.3f ms", name, now, lastMs)
		}
	}
	if ctl.ticks == 0 {
		t.Error("the controller was never ticked")
	}
}
