package runtime

import (
	"bytes"
	"encoding/json"
	"flag"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

var updateGolden = flag.Bool("update", false, "rewrite golden trace files")

// quickstartUnits replicates examples/quickstart's demo CNN exactly (same op
// sequence, same weight seed), so the golden trace mirrors what a user sees.
func quickstartUnits(t *testing.T) []*partition.Unit {
	t.Helper()
	g := graph.New("demo-cnn", []int{3, 32, 32})
	g.MustAdd(nn.NewConv2D("stem", 3, 16, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 16))
	g.MustAdd(nn.NewReLU("stem_relu"))
	pool := g.MustAdd(nn.NewMaxPool2D("pool", 2, 2, 0))
	c1 := g.MustAdd(nn.NewConv2D("res_conv1", 16, 16, 3, 1, 1), pool)
	b1 := g.MustAdd(nn.NewBatchNorm("res_bn1", 16), c1)
	r1 := g.MustAdd(nn.NewReLU("res_relu1"), b1)
	c2 := g.MustAdd(nn.NewConv2D("res_conv2", 16, 16, 3, 1, 1), r1)
	b2 := g.MustAdd(nn.NewBatchNorm("res_bn2", 16), c2)
	add := g.MustAdd(nn.NewAdd("res_add"), b2, pool)
	g.MustAdd(nn.NewReLU("res_relu2"), add)
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", 16, 10))
	g.MustAdd(nn.NewSoftmax("prob"))
	g.Init(1)
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// quickstartPlan is the quickstart's explicitly parallel fork-join plan.
func quickstartPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "demo-cnn", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
		{First: 3, Last: 5, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

// serveTracedOnce runs exactly one traced pass of size queries on a fresh
// prewarmed platform and drains the simulation, so the platform's
// BilledMsTotal is attributable to that single pass's trace.
func serveTracedOnce(t *testing.T, cfg platform.Config, seed int64, units []*partition.Unit, plan *partition.Plan, mode ExecMode, inputs []*tensor.Tensor, size int, opts ...DeployOption) (Result, *trace.Trace, *platform.Platform, string, error) {
	t.Helper()
	env := simnet.NewEnv()
	p := platform.New(env, cfg, seed)
	var (
		res    Result
		tr     *trace.Trace
		prefix string
		qerr   error
	)
	env.Go("client", func(proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, mode, opts...)
		if err != nil {
			qerr = err
			return
		}
		prefix = d.Prefix()
		if err := d.Prewarm(); err != nil {
			qerr = err
			return
		}
		res, tr, qerr = d.ServeBatch(proc, inputs, size, true)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	return res, tr, p, prefix, qerr
}

// groupMs is the master-observed duration of each fork-join round of a
// traced pass: its group spans, in plan order.
func groupMs(tr *trace.Trace) []float64 {
	var ms []float64
	for _, sp := range tracetest.ByKind(tr, trace.KindGroup) {
		ms = append(ms, float64(sp.End-sp.Start)/1e6)
	}
	return ms
}

func checkGolden(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run 'go test ./internal/runtime -run Golden -update'): %v", err)
	}
	if !bytes.Equal(want, got) {
		t.Errorf("trace diverged from golden %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}

// TestGoldenQuickstartTrace pins the quickstart fork-join pass's span tree
// byte-for-byte, for a single query and for a batch of three: same seeds
// must yield the identical serialized trace across runs and across kernel
// parallelism levels, and its billed-ms attribution must sum exactly to the
// platform's authoritative total.
func TestGoldenQuickstartTrace(t *testing.T) {
	units := quickstartUnits(t)
	plan := quickstartPlan(t, units)
	rng := rand.New(rand.NewSource(2))
	inputs := []*tensor.Tensor{tensor.Rand(rng, 1, 3, 32, 32), tensor.Rand(rng, 1, 3, 32, 32), tensor.Rand(rng, 1, 3, 32, 32)}

	for _, tc := range []struct {
		golden  string
		size    int
		digests []string // root attributes pinning the Real-mode outputs
	}{
		{"quickstart_trace.golden", 1, []string{"output-digest"}},
		{"quickstart_batch_trace.golden", 3, []string{"output-digest-0", "output-digest-1", "output-digest-2"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			type run struct {
				canon []byte
				tr    *trace.Trace
				p     *platform.Platform
				res   Result
			}
			serve := func(kernelWorkers int) run {
				restore := par.SetParallelism(kernelWorkers)
				defer restore()
				res, tr, p, prefix, err := serveTracedOnce(t, platform.AWSLambda(), 7, units, plan, Real, inputs[:tc.size], tc.size)
				if err != nil {
					t.Fatal(err)
				}
				// The deployment counter is process-global, so function names carry a
				// test-order-dependent sequence number; strip it for stable goldens.
				ren := func(s string) string { return strings.ReplaceAll(s, prefix, "demo-cnn") }
				return run{canon: tracetest.Canonical(tr, ren), tr: tr, p: p, res: res}
			}
			digestsOf := func(r run) string {
				var ds []string
				for _, key := range tc.digests {
					ds = append(ds, r.tr.Root().Attr(key))
				}
				return strings.Join(ds, " ")
			}

			base := serve(1)
			tracetest.CheckWellFormed(t, base.tr)
			tracetest.CheckBilledAttribution(t, base.tr)
			tracetest.CheckBilledTotal(t, base.tr, base.p.BilledMsTotal())
			if base.res.BilledMs != base.p.BilledMsTotal() {
				t.Errorf("pass billed %d ms, platform total %d ms", base.res.BilledMs, base.p.BilledMsTotal())
			}
			digests := digestsOf(base)
			if len(strings.Fields(digests)) != tc.size {
				t.Errorf("Real-mode trace root must carry one output digest per query, got %q", digests)
			}
			if n := len(tracetest.ByKind(base.tr, trace.KindInvoke)); n != 5 {
				// master + 2 channel workers + 2 spatial workers (part 0 on
				// master), whatever the batch size.
				t.Errorf("invoke spans = %d, want 5", n)
			}
			if got, want := tracetest.CountEvents(base.tr, "op:res_conv1"), 3*tc.size; got != want {
				// Per query: once per spatial worker (×2) plus the master's own
				// partition 0.
				t.Errorf("op:res_conv1 events = %d, want %d", got, want)
			}

			checkGolden(t, filepath.Join("testdata", tc.golden), base.canon)

			// Kernel parallelism is a wall-clock knob: the simulated trace — spans,
			// events, virtual timings, billing, and the output digests — must not
			// move, on the way up or back down.
			for _, workers := range []int{2, 4, 1} {
				r := serve(workers)
				if !bytes.Equal(r.canon, base.canon) {
					t.Errorf("trace differs at kernel parallelism %d\n--- got ---\n%s\n--- base ---\n%s", workers, r.canon, base.canon)
				}
				if got := digestsOf(r); got != digests {
					t.Errorf("output digests at parallelism %d = %s, want %s", workers, got, digests)
				}
			}
		})
	}
}

// TestResNetFaultedTraceAcceptance is the PR's acceptance scenario: a seeded
// ResNet fork-join query with fault injection produces a Chrome-loadable
// trace whose per-span billed-ms sums exactly to the platform's total, and
// the serialized trace is byte-stable across runs and parallelism levels.
func TestResNetFaultedTraceAcceptance(t *testing.T) {
	m := lambdaModel(t)
	units := zooUnits(t, "resnet34")
	plan, _, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := platform.AWSLambda()
	cfg.Faults = platform.FaultProfile{FailureProb: 0.1, StragglerProb: 0.1, StragglerFactor: 4, EvictionProb: 0.05}
	opts := []DeployOption{WithRetries(3, 25), WithMasterFallback()}

	serve := func(kernelWorkers int) ([]byte, []byte, *trace.Trace, *platform.Platform) {
		restore := par.SetParallelism(kernelWorkers)
		defer restore()
		_, tr, p, prefix, err := serveTracedOnce(t, cfg, 97, units, plan, ShapeOnly, nil, 1, opts...)
		if err != nil {
			t.Fatalf("query failed despite retries: %v", err)
		}
		ren := func(s string) string { return strings.ReplaceAll(s, prefix, "resnet34") }
		return tracetest.Canonical(tr, ren), tr.ChromeJSON(ren), tr, p
	}

	canon, chrome, tr, p := serve(1)
	tracetest.CheckWellFormed(t, tr)
	tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())
	failed := tracetest.CheckFaultKinds(t, tr)
	tracetest.CheckHedges(t, tr)

	if n := len(tracetest.ByKind(tr, trace.KindInvoke)); n < 2 {
		t.Fatalf("plan produced %d invocations; acceptance needs a fork-join query (master + workers)", n)
	}
	if failed == 0 {
		t.Fatal("no faulted invocation in the trace; pick a seed that exercises fault injection")
	}

	var events []map[string]any
	if err := json.Unmarshal(chrome, &events); err != nil {
		t.Fatalf("ChromeJSON not valid JSON: %v", err)
	}
	if len(events) < 10 {
		t.Fatalf("suspiciously small chrome trace: %d events", len(events))
	}

	// Byte-stability: identical run, then identical under different kernel
	// parallelism (ShapeOnly runs no kernels; the knob must not leak in).
	for _, workers := range []int{1, 2, 4} {
		c2, j2, _, _ := serve(workers)
		if !bytes.Equal(c2, canon) {
			t.Errorf("canonical trace not reproducible at kernel parallelism %d", workers)
		}
		if !bytes.Equal(j2, chrome) {
			t.Errorf("chrome trace not reproducible at kernel parallelism %d", workers)
		}
	}
}

// TestTraceInvariantsUnderFaultSweep is the property test: across 100 seeds,
// mixed fault profiles and batch sizes 1 and 4, every trace stays
// well-formed, every failed invocation span carries its typed fault kind,
// per-span billed-ms sums exactly to the platform's authoritative total and
// rolls up consistently wherever no work was abandoned — whether or not the
// pass survived.
func TestTraceInvariantsUnderFaultSweep(t *testing.T) {
	units := tinyCNN(t)
	plan := resilPlan(t, units)
	profiles := []platform.FaultProfile{
		{FailureProb: 0.2},
		{FailureProb: 0.1, EvictionProb: 0.1},
		{FailureProb: 0.05, StragglerProb: 0.2, StragglerFactor: 8},
	}
	for _, size := range []int{1, 4} {
		var failedSpans, failedPasses int
		for seed := int64(0); seed < 100; seed++ {
			prof := profiles[seed%int64(len(profiles))]
			cfg := platform.AWSLambda()
			cfg.Faults = prof
			_, tr, p, _, err := serveTracedOnce(t, cfg, seed, units, plan, ShapeOnly, nil, size,
				WithRetries(3, 2), WithMasterFallback())
			if err != nil {
				failedPasses++
			}
			tracetest.CheckWellFormed(t, tr)
			failedSpans += tracetest.CheckFaultKinds(t, tr)
			tracetest.CheckBilledTotal(t, tr, p.BilledMsTotal())
			tracetest.CheckBilledAttribution(t, tr)
			tracetest.CheckHedges(t, tr)
			if t.Failed() {
				t.Fatalf("trace invariant violated at batch size %d, seed %d (profile %+v)", size, seed, prof)
			}
		}
		if failedSpans == 0 {
			t.Fatalf("batch size %d: sweep observed no faulted invocations; fault injection inactive", size)
		}
		t.Logf("batch size %d, 100 seeds: %d faulted invocation spans, %d failed passes, all invariants held", size, failedSpans, failedPasses)
	}
}
