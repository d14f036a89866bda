package runtime

import (
	"errors"
	"math/rand"
	goruntime "runtime"
	"strings"
	"sync"
	"testing"

	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// tinyCNN matches the partition package's test model: stem conv+bn+relu,
// maxpool, residual block, avgpool.
func tinyCNN(t *testing.T) []*partition.Unit {
	t.Helper()
	units, err := partition.Linearize(tinyGraph(t))
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// tinyGraph is tinyCNN's model, initialized.
func tinyGraph(t *testing.T) *graph.Graph {
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
	return g
}

// mixedPlan exercises all three dims: spatial group (master+workers),
// channel group (workers only), whole-on-master group.
func mixedPlan(t *testing.T, units []*partition.Unit) *partition.Plan {
	t.Helper()
	plan := &partition.Plan{Model: "tinycnn", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
		{First: 3, Last: 3, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	return plan
}

func runClient(t *testing.T, cfg platform.Config, seed int64, driver func(p *platform.Platform, proc *simnet.Proc)) {
	t.Helper()
	env := simnet.NewEnv()
	p := platform.New(env, cfg, seed)
	env.Go("client", func(proc *simnet.Proc) { driver(p, proc) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

// inputsAndWant draws n seeded tinyCNN inputs and their monolithic outputs.
func inputsAndWant(t *testing.T, units []*partition.Unit, seed int64, n int) (xs, want []*tensor.Tensor) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for e := 0; e < n; e++ {
		x := tensor.Rand(rng, 1, 3, 24, 24)
		out, err := partition.ForwardChain(units, x)
		if err != nil {
			t.Fatal(err)
		}
		xs, want = append(xs, x), append(want, out)
	}
	return xs, want
}

// TestServeRealMatchesMonolithic pins the fork-join contract at batch sizes
// 1 and 4: a pass through a mixed plan (channel, spatial+master,
// master-local groups) yields exactly the outputs of monolithic execution,
// one per query, and the per-pass accounting is sane.
func TestServeRealMatchesMonolithic(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	for _, n := range []int{1, 4} {
		xs, want := inputsAndWant(t, units, 7, n)
		runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, Real)
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Prewarm(); err != nil {
				t.Error(err)
				return
			}
			res, _, err := d.ServeBatch(proc, xs, n, false)
			if err != nil {
				t.Error(err)
				return
			}
			if res.Size != n || len(res.Outputs) != n {
				t.Errorf("batch of %d: result size %d, %d outputs", n, res.Size, len(res.Outputs))
				return
			}
			for e := range want {
				if !tensor.Equal(res.Outputs[e], want[e]) {
					t.Errorf("batch of %d: output %d must match monolithic execution bitwise", n, e)
				}
			}
			if res.LatencyMs <= 0 || res.BilledMs <= 0 {
				t.Errorf("bad accounting: %+v", res)
			}
			if res.ColdStart {
				t.Error("prewarmed master should warm-start")
			}
			if len(res.GroupMs) != len(plan.Groups) {
				t.Errorf("got %d group timings, want %d", len(res.GroupMs), len(plan.Groups))
			}
		})
	}
}

// TestServeBatchShapeOnlyScalesWithSize pins the modeled-cost side: a
// ShapeOnly batch of 8 must take longer than a single query but far less
// than 8 sequential queries (per-round overheads amortize).
func TestServeBatchShapeOnlyScalesWithSize(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	var single, batched float64
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res1, err := d.Serve(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		res8, _, err := d.ServeBatch(proc, nil, 8, false)
		if err != nil {
			t.Error(err)
			return
		}
		single, batched = res1.LatencyMs, res8.LatencyMs
	})
	if batched <= single {
		t.Fatalf("batch of 8 latency %.3f should exceed single %.3f", batched, single)
	}
	if batched >= 8*single {
		t.Fatalf("batch of 8 latency %.3f should amortize below 8x single %.3f", batched, single)
	}
}

// TestServeBatchValidation pins the argument contract.
func TestServeBatchValidation(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		dReal, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		dShape, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := dReal.Serve(proc, nil); err == nil {
			t.Error("a Real serve without an input should fail")
		}
		if _, _, err := dReal.ServeBatch(proc, nil, 2, false); err == nil {
			t.Error("Real batch without inputs should fail")
		}
		x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 24, 24)
		if _, _, err := dReal.ServeBatch(proc, []*tensor.Tensor{x}, 2, false); err == nil {
			t.Error("size/inputs mismatch should fail")
		}
		if _, _, err := dShape.ServeBatch(proc, nil, 0, false); err == nil {
			t.Error("non-positive ShapeOnly size should fail")
		}
	})
}

func TestServeDefaultReal(t *testing.T) {
	units := tinyCNN(t)
	x := tensor.Rand(rand.New(rand.NewSource(8)), 1, 3, 24, 24)
	want, err := partition.ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	runClient(t, platform.KNIX(), 2, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := DeployDefault(p, units, Real)
		if err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, x)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Equal(res.Outputs[0], want) {
			t.Error("default serving output mismatch")
		}
	})
}

// TestDeployRejectsOOM: a plan over the weight budget fails with ErrOOM,
// whichever of Deploy's two budget checks catches it, and the message still
// says OOM; a plan that is merely invalid is not ErrOOM.
func TestDeployRejectsOOM(t *testing.T) {
	g, err := models.WideResNet(34, 5)
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	p := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	_, err = DeployDefault(p, units, ShapeOnly)
	if !errors.Is(err, ErrOOM) || !strings.Contains(err.Error(), "partition needs") || !strings.HasSuffix(err.Error(), "(OOM)") {
		t.Fatalf("WRN-34-5 must not fit a single 1.4 GB function: %v", err)
	}
	// Every group fits a function, their sum does not fit the master.
	var perGroup []partition.GroupPlan
	for i := range units {
		perGroup = append(perGroup, partition.GroupPlan{First: i, Last: i, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true})
	}
	_, err = Deploy(p, units, &partition.Plan{Model: "wrn34-5", Groups: perGroup}, ShapeOnly)
	if !errors.Is(err, ErrOOM) || !strings.Contains(err.Error(), "master resident weights") || !strings.HasSuffix(err.Error(), "(OOM)") {
		t.Fatalf("master holding every group must exceed the budget: %v", err)
	}
	_, err = Deploy(p, units, &partition.Plan{Model: "OOM", Groups: perGroup[:1]}, ShapeOnly)
	if err == nil || errors.Is(err, ErrOOM) {
		t.Fatalf("a plan that does not cover the model is invalid, not out of memory: %v", err)
	}
}

func TestDeployRejectsUninitializedReal(t *testing.T) {
	g, err := models.VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	env := simnet.NewEnv()
	p := platform.New(env, platform.AWSLambda(), 1)
	if _, err := DeployDefault(p, units, Real); err == nil {
		t.Fatal("Real mode without weights must fail")
	}
}

var (
	perfOnce sync.Once
	perfMdl  *perf.Model
	perfErr  error
)

func lambdaModel(t *testing.T) *perf.Model {
	t.Helper()
	perfOnce.Do(func() { perfMdl, perfErr = perf.Build(platform.AWSLambda(), 1, 2, 300) })
	if perfErr != nil {
		t.Fatal(perfErr)
	}
	return perfMdl
}

func zooUnits(t *testing.T, name string) []*partition.Unit {
	t.Helper()
	g, err := models.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

// Gillis (latency-optimal) must beat Default on the simulated platform, not
// just in the predictor — Fig. 9 measured end to end.
func TestGillisBeatsDefaultMeasured(t *testing.T) {
	m := lambdaModel(t)
	units := zooUnits(t, "vgg16")
	plan, _, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var gillisMs, defaultMs float64
	runClient(t, platform.AWSLambda(), 3, func(p *platform.Platform, proc *simnet.Proc) {
		dg, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		dd, err := DeployDefault(p, units, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := dg.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		if err := dd.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		for i := 0; i < 20; i++ {
			rg, err := dg.Serve(proc, nil)
			if err != nil {
				t.Error(err)
				return
			}
			rd, err := dd.Serve(proc, nil)
			if err != nil {
				t.Error(err)
				return
			}
			gillisMs += rg.LatencyMs
			defaultMs += rd.LatencyMs
		}
	})
	speedup := defaultMs / gillisMs
	if speedup < 1.3 {
		t.Fatalf("measured VGG-16 speedup %.2f, want >= 1.3 (Fig. 9 reports ~1.9)", speedup)
	}
}

// Performance-model fidelity (Fig. 15 bottom): predicted end-to-end latency
// within ~10% of the measured mean.
func TestPredictionMatchesMeasurement(t *testing.T) {
	m := lambdaModel(t)
	for _, name := range []string{"vgg11", "resnet50"} {
		units := zooUnits(t, name)
		plan, pred, err := core.LatencyOptimal(m, units, core.Config{})
		if err != nil {
			t.Fatal(err)
		}
		var total float64
		const queries = 30
		runClient(t, platform.AWSLambda(), 4, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, ShapeOnly)
			if err != nil {
				t.Error(err)
				return
			}
			if err := d.Prewarm(); err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < queries; i++ {
				r, err := d.Serve(proc, nil)
				if err != nil {
					t.Error(err)
					return
				}
				total += r.LatencyMs
			}
		})
		mean := total / queries
		rel := (pred.LatencyMs - mean) / mean
		if rel < -0.12 || rel > 0.12 {
			t.Errorf("%s: predicted %.0f ms vs measured %.0f ms (%.1f%%)", name, pred.LatencyMs, mean, rel*100)
		}
	}
}

func TestPipelineRealCorrectAndBreakdown(t *testing.T) {
	units := tinyCNN(t)
	x := tensor.Rand(rand.New(rand.NewSource(9)), 1, 3, 24, 24)
	want, err := partition.ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	runClient(t, platform.AWSLambda(), 5, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := DeployPipeline(p, units, Real)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, x)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Equal(res.Output, want) {
			t.Error("pipeline output mismatch")
		}
		if res.LoadMs <= 0 || res.ComputeMs <= 0 {
			t.Errorf("breakdown missing: %+v", res)
		}
		if res.LatencyMs < res.LoadMs+res.ComputeMs-1 {
			t.Errorf("latency %.1f < load %.1f + compute %.1f", res.LatencyMs, res.LoadMs, res.ComputeMs)
		}
	})
}

func TestPipelineChunksLargeModel(t *testing.T) {
	units := zooUnits(t, "wrn34-5") // 2.1 GB of weights
	runClient(t, platform.AWSLambda(), 6, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := DeployPipeline(p, units, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if d.Chunks() < 2 {
			t.Errorf("WRN-34-5 pipeline should need >= 2 chunks, got %d", d.Chunks())
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		// Fig. 11: network transfer dominates the pipeline's latency.
		if res.LoadMs < res.ComputeMs {
			t.Errorf("weight loading (%.0f ms) should dominate compute (%.0f ms)", res.LoadMs, res.ComputeMs)
		}
	})
}

func TestServeDeterministicReplay(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	run := func() []float64 {
		var out []float64
		runClient(t, platform.AWSLambda(), 77, func(p *platform.Platform, proc *simnet.Proc) {
			d, err := Deploy(p, units, plan, ShapeOnly)
			if err != nil {
				t.Error(err)
				return
			}
			for i := 0; i < 5; i++ {
				r, err := d.Serve(proc, nil)
				if err != nil {
					t.Error(err)
					return
				}
				out = append(out, r.LatencyMs)
			}
		})
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replay diverged at query %d: %v vs %v", i, a[i], b[i])
		}
	}
	// First (cold) query should be slower than warm ones.
	if a[0] <= a[1] {
		t.Errorf("cold-start query (%.1f) should exceed warm (%.1f)", a[0], a[1])
	}
}

func TestResultBillingCoversWorkers(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	runClient(t, platform.AWSLambda(), 10, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if res.BilledMs < int64(res.LatencyMs) {
			t.Errorf("billed %d must at least cover the master's %f ms", res.BilledMs, res.LatencyMs)
		}
	})
}

// TestChannelGroupReusesSlicedWeights pins that a channel-partitioned group
// slices its weights when it is deployed, not when it is served: a second
// serve (and a batched one) allocates far less than one partition's share
// of the weights and is still bitwise equal to monolithic execution.
func TestChannelGroupReusesSlicedWeights(t *testing.T) {
	g := graph.New("widefc", []int{2048})
	g.MustAdd(nn.NewDense("fc", 2048, 1024)) // 8 MB of weights, 12 KB of activations
	g.Init(3)
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	plan := &partition.Plan{Model: "widefc", Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	partBytes := units[0].ParamBytes / 2
	xs := []*tensor.Tensor{
		tensor.Rand(rand.New(rand.NewSource(1)), 1, 2048),
		tensor.Rand(rand.New(rand.NewSource(2)), 1, 2048),
	}
	want := make([]*tensor.Tensor, len(xs))
	for e, x := range xs {
		if want[e], err = partition.ForwardChain(units, x); err != nil {
			t.Fatal(err)
		}
	}
	// allocated reports the bytes fn allocates; the simulation runs one
	// process at a time, so nothing else allocates meanwhile.
	allocated := func(fn func()) int64 {
		var before, after goruntime.MemStats
		goruntime.ReadMemStats(&before)
		fn()
		goruntime.ReadMemStats(&after)
		return int64(after.TotalAlloc - before.TotalAlloc)
	}
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := d.Serve(proc, xs[0]); err != nil {
			t.Error(err)
			return
		}
		var res Result
		if n := allocated(func() { res, err = d.Serve(proc, xs[1]) }); err != nil {
			t.Error(err)
		} else if n > partBytes/8 {
			t.Errorf("second serve allocated %d bytes; one partition's weights are %d", n, partBytes)
		} else if !tensor.Equal(res.Outputs[0], want[1]) {
			t.Error("second serve differs from monolithic execution")
		}
		var batch Result
		if n := allocated(func() { batch, _, err = d.ServeBatch(proc, xs, len(xs), false) }); err != nil {
			t.Error(err)
		} else if n > partBytes/8 {
			t.Errorf("batched serve allocated %d bytes; one partition's weights are %d", n, partBytes)
		} else if !tensor.Equal(batch.Outputs[0], want[0]) || !tensor.Equal(batch.Outputs[1], want[1]) {
			t.Error("batched serve differs from monolithic execution")
		}
	})
}
