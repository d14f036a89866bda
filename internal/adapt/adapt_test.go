package adapt

import (
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/workload"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the decision-log golden file")

var (
	perfOnce sync.Once
	perfMdl  *perf.Model
	perfErr  error
)

func sharedModel(t *testing.T) *perf.Model {
	t.Helper()
	perfOnce.Do(func() { perfMdl, perfErr = perf.Build(platform.AWSLambda(), 1, 2, 300) })
	if perfErr != nil {
		t.Fatal(perfErr)
	}
	return perfMdl
}

// tinyCNN mirrors the runtime/gateway test model.
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

func naivePlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

func fanoutPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimSpatial, Parts: 2}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

func outcomeDigest(outs []gateway.Outcome) string {
	h := fnv.New64a()
	for _, o := range outs {
		fmt.Fprintf(h, "%d|%.6f|%.6f|%.6f|%d|%v|%v|%v|%q|%q\n",
			o.ID, o.ArrivalMs, o.QueueMs, o.TotalMs,
			o.BilledMs, o.ColdStart, o.Shed, o.SLOOK, o.Err, o.FaultKind)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// scenario runs one adaptive replay: healthy start, fault-regime shift to a
// degraded profile mid-replay, recovery in the final third.
type scenarioResult struct {
	rep *gateway.LoadReport
	ctl *Controller
	log string
	dig string
}

func runScenario(t *testing.T, seed int64, horizon time.Duration, cfg Config) scenarioResult {
	t.Helper()
	model := sharedModel(t)
	units := tinyCNN(t)
	pcfg := platform.AWSLambda()
	pcfg.WarmIdleMs = 10000
	pcfg.PrewarmMs = pcfg.ColdStartMs
	degraded := platform.FaultProfile{FailureProb: 0.3, StragglerProb: 0.2, StragglerFactor: 4}
	third := float64(horizon/time.Millisecond) / 3
	pcfg.FaultSchedule = []platform.FaultTransition{
		{AtMs: third, Profile: degraded},
		{AtMs: 2 * third, Profile: platform.FaultProfile{}},
	}
	env := simnet.NewEnv()
	p := platform.New(env, pcfg, seed)
	dLat, err := runtime.Deploy(p, units, naivePlan(t, units), runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	dCons, err := runtime.Deploy(p, units, fanoutPlan(t, units), runtime.ShapeOnly,
		runtime.WithRetries(3, 25), runtime.WithMasterFallback())
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(dLat, dCons)
	if err != nil {
		t.Fatal(err)
	}
	cands := []Candidate{
		{Name: "latency", Index: 0, Plan: naivePlan(t, units)},
		{Name: "conservative", Index: 1, Plan: fanoutPlan(t, units), Resilient: true},
	}
	ctl, err := New(model, units, sw, cands, cfg)
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.Poisson(rand.New(rand.NewSource(seed+100)), 2.5, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rep, outs, err := gateway.Run(sw, arrivals, gateway.Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       cfg.SLOMs,
		Window:      20,
		Controller:  ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	return scenarioResult{rep: rep, ctl: ctl, log: ctl.DecisionLog(), dig: outcomeDigest(outs)}
}

func scenarioConfig() Config {
	return Config{
		SLOMs:         700,
		MinWindow:     8,
		CooldownTicks: 5,
		DisableReplan: true,
		Mode:          runtime.ShapeOnly,
	}
}

func TestNewValidation(t *testing.T) {
	model := sharedModel(t)
	units := tinyCNN(t)
	env := simnet.NewEnv()
	p := platform.New(env, platform.AWSLambda(), 1)
	d, err := runtime.Deploy(p, units, naivePlan(t, units), runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(d)
	if err != nil {
		t.Fatal(err)
	}
	good := []Candidate{{Name: "a", Index: 0, Plan: naivePlan(t, units)}}
	cases := []struct {
		name  string
		model *perf.Model
		sw    *runtime.Switcher
		cands []Candidate
		cfg   Config
	}{
		{"nil model", nil, sw, good, Config{SLOMs: 500}},
		{"nil switcher", model, nil, good, Config{SLOMs: 500}},
		{"no candidates", model, sw, nil, Config{SLOMs: 500}},
		{"zero slo", model, sw, good, Config{}},
		{"unnamed candidate", model, sw, []Candidate{{Index: 0, Plan: naivePlan(t, units)}}, Config{SLOMs: 500}},
		{"index out of range", model, sw, []Candidate{{Name: "a", Index: 5, Plan: naivePlan(t, units)}}, Config{SLOMs: 500}},
		{"no plan", model, sw, []Candidate{{Name: "a", Index: 0}}, Config{SLOMs: 500}},
		{"duplicate name", model, sw, []Candidate{
			{Name: "a", Index: 0, Plan: naivePlan(t, units)},
			{Name: "a", Index: 0, Plan: naivePlan(t, units)},
		}, Config{SLOMs: 500}},
	}
	for _, tc := range cases {
		if _, err := New(tc.model, units, tc.sw, tc.cands, tc.cfg); err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
	if _, err := New(model, units, sw, good, Config{SLOMs: 500}); err != nil {
		t.Errorf("valid construction rejected: %v", err)
	}
}

func TestPageHinkley(t *testing.T) {
	var ph pageHinkley
	for i := 0; i < 200; i++ {
		if ph.observe(1.0, 0.05, 0.5) {
			t.Fatalf("fired on a stationary signal at %d", i)
		}
	}
	fired := false
	for i := 0; i < 50; i++ {
		if ph.observe(2.0, 0.05, 0.5) {
			fired = true
			break
		}
	}
	if !fired {
		t.Fatal("must fire on a sustained upward shift")
	}
	// The test resets after firing: another stationary run stays quiet.
	for i := 0; i < 50; i++ {
		if ph.observe(2.0, 0.05, 0.5) && i < 3 {
			t.Fatalf("refired immediately after reset at %d", i)
		}
	}
}

// TestScenarioGoldenDecisions pins the controller's full decision sequence
// under a mid-replay fault-regime shift.
func TestScenarioGoldenDecisions(t *testing.T) {
	res := runScenario(t, 7, 60*time.Second, scenarioConfig())
	if len(res.ctl.decisions) == 0 {
		t.Fatal("controller recorded no decisions")
	}
	if !strings.Contains(res.log, "switch:conservative") {
		t.Errorf("controller never switched to the resilient plan under faults:\n%s", res.log)
	}
	if !strings.Contains(res.log, "switch:latency") {
		t.Errorf("controller never fell back to the cheap plan after recovery:\n%s", res.log)
	}
	if res.rep.PlanSwitches == 0 {
		t.Error("gateway report shows no plan switches")
	}
	reg := res.ctl.sw.Platform().Metrics()
	if reg.Counter("adapt.decisions").Value() != int64(len(res.ctl.decisions)) {
		t.Error("adapt.decisions counter out of sync with the decision log")
	}
	if want := fmt.Sprintf("gauge adapt.active_plan value=%d ", res.ctl.sw.Active()); !strings.Contains(reg.Summary(), want) {
		t.Errorf("adapt.active_plan gauge is not %q:\n%s", want, reg.Summary())
	}
	golden := filepath.Join("testdata", "decisions.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(res.log), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update-golden to create)", err)
	}
	if string(want) != res.log {
		t.Errorf("decision log diverged from golden:\n--- want ---\n%s--- got ---\n%s", want, res.log)
	}
}

// TestDecisionsDeterministic is the 100-seed property: the decision sequence
// and every outcome are bit-identical across worker-pool parallelism and
// across repeated replays of the same seed.
func TestDecisionsDeterministic(t *testing.T) {
	seeds := 100
	if testing.Short() {
		seeds = 12
	}
	horizon := 16 * time.Second
	for seed := int64(0); seed < int64(seeds); seed++ {
		var logs, digs []string
		for _, workers := range []int{1, 4, 1} {
			restore := par.SetParallelism(workers)
			res := runScenario(t, seed, horizon, scenarioConfig())
			restore()
			logs = append(logs, res.log)
			digs = append(digs, res.dig)
		}
		for i := 1; i < len(logs); i++ {
			if logs[i] != logs[0] {
				t.Fatalf("seed %d: decision log diverged between runs 0 and %d:\n--- run 0 ---\n%s--- run %d ---\n%s",
					seed, i, logs[0], i, logs[i])
			}
			if digs[i] != digs[0] {
				t.Fatalf("seed %d: outcome digest diverged: %s vs %s", seed, digs[0], digs[i])
			}
		}
	}
}

// TestBrownoutLadder drives the platform sick enough that no candidate can
// hold the SLO (the only candidate is not resilient and replanning is off):
// the controller must brown out, then release with hysteresis once the
// platform recovers.
func TestBrownoutLadder(t *testing.T) {
	model := sharedModel(t)
	units := tinyCNN(t)
	pcfg := platform.AWSLambda()
	pcfg.WarmIdleMs = 10000
	pcfg.PrewarmMs = pcfg.ColdStartMs
	pcfg.FaultSchedule = []platform.FaultTransition{
		{AtMs: 4000, Profile: platform.FaultProfile{FailureProb: 0.85}},
		{AtMs: 14000, Profile: platform.FaultProfile{}},
	}
	env := simnet.NewEnv()
	p := platform.New(env, pcfg, 5)
	d, err := runtime.Deploy(p, units, naivePlan(t, units), runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(d)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(model, units, sw, []Candidate{{Name: "only", Index: 0, Plan: naivePlan(t, units)}}, Config{
		SLOMs:         700,
		MinWindow:     8,
		CooldownTicks: 3,
		DisableReplan: true,
		Mode:          runtime.ShapeOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.Poisson(rand.New(rand.NewSource(11)), 3, 30*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, outs, err := gateway.Run(sw, arrivals, gateway.Config{
		MaxInFlight: 2,
		QueueCap:    4,
		SLOMs:       700,
		Window:      20,
		Controller:  ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := ctl.DecisionLog()
	if !strings.Contains(log, "brownout:on") {
		t.Fatalf("controller never browned out under an unservable fault regime:\n%s", log)
	}
	if !strings.Contains(log, "brownout:off") {
		t.Fatalf("controller never released brownout after recovery:\n%s", log)
	}
	if rep.BrownoutMs <= 0 {
		t.Errorf("report brownout duration %v, want > 0", rep.BrownoutMs)
	}
	onAt, offAt := -1.0, -1.0
	for _, dec := range ctl.decisions {
		if strings.Contains(dec.Action, "brownout:on") && onAt < 0 {
			onAt = dec.AtMs
		}
		if strings.Contains(dec.Action, "brownout:off") && offAt < 0 {
			offAt = dec.AtMs
		}
	}
	if onAt < 4000 {
		t.Errorf("brownout engaged at %v ms, before the fault regime began", onAt)
	}
	if offAt <= onAt {
		t.Errorf("brownout released at %v ms, not after engagement at %v ms", offAt, onAt)
	}
	reg := p.Metrics()
	if reg.Counter("adapt.brownouts").Value() == 0 {
		t.Error("adapt.brownouts counter never incremented")
	}
	for _, o := range outs {
		if o.Err == gateway.ErrBrownout.Error() && (o.ArrivalMs < onAt || (offAt > 0 && o.ArrivalMs > offAt)) {
			t.Errorf("query %d shed by brownout outside the episode [%v, %v]: arrival %v",
				o.ID, onAt, offAt, o.ArrivalMs)
		}
	}
}

// TestReplanDeploysNewCandidate removes every resilient candidate and leaves
// replanning on: under fault pressure the controller must synthesize a new
// plan online, deploy it, and switch to it.
func TestReplanDeploysNewCandidate(t *testing.T) {
	model := sharedModel(t)
	units := tinyCNN(t)
	pcfg := platform.AWSLambda()
	pcfg.WarmIdleMs = 10000
	pcfg.PrewarmMs = pcfg.ColdStartMs
	pcfg.FaultSchedule = []platform.FaultTransition{
		{AtMs: 4000, Profile: platform.FaultProfile{FailureProb: 0.3}},
	}
	env := simnet.NewEnv()
	p := platform.New(env, pcfg, 9)
	d, err := runtime.Deploy(p, units, naivePlan(t, units), runtime.ShapeOnly)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := runtime.NewSwitcher(d)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := New(model, units, sw, []Candidate{{Name: "only", Index: 0, Plan: naivePlan(t, units)}}, Config{
		SLOMs:     2500,
		MinWindow: 8,
		Mode:      runtime.ShapeOnly,
	})
	if err != nil {
		t.Fatal(err)
	}
	arrivals, err := workload.Poisson(rand.New(rand.NewSource(13)), 3, 20*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	rep, _, err := gateway.Run(sw, arrivals, gateway.Config{
		MaxInFlight: 4,
		QueueCap:    8,
		SLOMs:       2500,
		Window:      20,
		Controller:  ctl,
	})
	if err != nil {
		t.Fatal(err)
	}
	log := ctl.DecisionLog()
	if !strings.Contains(log, "replan:replan-1") {
		t.Fatalf("controller never replanned:\n%s", log)
	}
	if sw.Len() < 2 {
		t.Errorf("switcher holds %d deployments, want the replanned one added", sw.Len())
	}
	if p.Metrics().Counter("adapt.replans").Value() == 0 {
		t.Error("adapt.replans counter never incremented")
	}
	if rep.PlanSwitches == 0 {
		t.Error("report shows no plan switch after replanning")
	}
}

// TestCalibratedLatency: a candidate that has not been active is estimated
// at its prediction plus one invocation overhead — the model's fitted mean
// before any invocation settled — and, once the active plan has an observed
// baseline, scaled by that baseline over the active plan's own estimate; a
// candidate that has been active is estimated at its baseline.
func TestCalibratedLatency(t *testing.T) {
	model := sharedModel(t)
	units := tinyCNN(t)
	p := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	plans := []*partition.Plan{naivePlan(t, units), fanoutPlan(t, units)}
	var ds []*runtime.Deployment
	for _, plan := range plans {
		d, err := runtime.Deploy(p, units, plan, runtime.ShapeOnly)
		if err != nil {
			t.Fatal(err)
		}
		ds = append(ds, d)
	}
	sw, err := runtime.NewSwitcher(ds...)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(model, units, sw, []Candidate{{Name: "naive", Index: 0, Plan: plans[0]}, {Name: "fanout", Index: 1, Plan: plans[1]}}, Config{SLOMs: 500})
	if err != nil {
		t.Fatal(err)
	}
	comm := model.Comm()
	ovh := comm.Mu + 1/comm.Lambda
	fanout := c.pred[1].LatencyMs + ovh
	if got := c.estLatency(1, 0); got != fanout {
		t.Errorf("no baseline: fanout estimated at %v ms, want %v", got, fanout)
	}
	c.base[0] = 2 * (c.pred[0].LatencyMs + ovh) // the active plan serves at twice its estimate
	if got := c.estLatency(1, 0); got != 2*fanout {
		t.Errorf("active at twice its estimate: fanout estimated at %v ms, want %v", got, 2*fanout)
	}
	if got := c.estLatency(0, 0); got != c.base[0] {
		t.Errorf("naive, observed at %v ms, estimated at %v", c.base[0], got)
	}
}

// TestRegimeString: the names the decision log prints, and a value outside
// the enumeration rendered as a number rather than as a wrong name.
func TestRegimeString(t *testing.T) {
	for r, want := range map[Regime]string{Healthy: "healthy", Degraded: "degraded", Critical: "critical", Regime(7): "regime(7)"} {
		if got := r.String(); got != want {
			t.Errorf("Regime(%d).String() = %q, want %q", int(r), got, want)
		}
	}
}
