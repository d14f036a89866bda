package runtime

import (
	"math/rand"
	"testing"

	"gillis/internal/models"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// An RNN stack split across functions runs as serial remote rounds (the
// Fig. 12 regime); outputs must still be exact.
func TestServeRNNSerialRoundsReal(t *testing.T) {
	g, err := models.RNNCustom(4, 8, 6, 12)
	if err != nil {
		t.Fatal(err)
	}
	g.Init(3)
	units, err := partition.Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Two LSTM layers on the master, two on a worker, head on another
	// worker: three serial rounds.
	plan := &partition.Plan{Model: "rnn4", Groups: []partition.GroupPlan{
		{First: 0, Last: 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
		{First: 2, Last: 3, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
		{First: 4, Last: len(units) - 1, Option: partition.Option{Dim: partition.DimNone, Parts: 1}},
	}}
	if err := plan.Validate(units); err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(5)), 1, 6, 8)
	want, err := forwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	runClient(t, platform.AWSLambda(), 21, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, Real)
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
			t.Error("serial-round output mismatch")
		}
	})
}

// Concurrent clients against one Real deployment: every query must return
// the correct tensor even while invocations interleave in the simulator.
func TestConcurrentClientsReal(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	const clients = 6
	inputs := make([]*tensor.Tensor, clients)
	wants := make([]*tensor.Tensor, clients)
	for i := range inputs {
		inputs[i] = tensor.Rand(rand.New(rand.NewSource(int64(100+i))), 1, 3, 24, 24)
		w, err := forwardChain(units, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		wants[i] = w
	}
	env := simnet.NewEnv()
	p := platform.New(env, platform.KNIX(), 9)
	d, err := Deploy(p, units, plan, Real)
	if err != nil {
		t.Fatal(err)
	}
	errs := make([]error, clients)
	oks := make([]bool, clients)
	for i := 0; i < clients; i++ {
		i := i
		env.Go("client", func(proc *simnet.Proc) {
			res, err := d.Serve(proc, inputs[i])
			if err != nil {
				errs[i] = err
				return
			}
			oks[i] = tensor.Equal(res.Outputs[0], wants[i])
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		if errs[i] != nil {
			t.Fatalf("client %d: %v", i, errs[i])
		}
		if !oks[i] {
			t.Fatalf("client %d: wrong output under concurrency", i)
		}
	}
}

// Serving Gillis and Default side by side in the same simulation must give
// identical answers (they share weights).
func TestGillisMatchesDefaultSideBySide(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	x := tensor.Rand(rand.New(rand.NewSource(17)), 1, 3, 24, 24)
	runClient(t, platform.AWSLambda(), 23, func(p *platform.Platform, proc *simnet.Proc) {
		dg, err := Deploy(p, units, plan, Real)
		if err != nil {
			t.Error(err)
			return
		}
		dd, err := DeployDefault(p, units, Real)
		if err != nil {
			t.Error(err)
			return
		}
		rg, err := dg.Serve(proc, x)
		if err != nil {
			t.Error(err)
			return
		}
		rd, err := dd.Serve(proc, x)
		if err != nil {
			t.Error(err)
			return
		}
		if !tensor.Equal(rg.Outputs[0], rd.Outputs[0]) {
			t.Error("gillis and default disagree")
		}
	})
}

// Failure injection: a worker that returns a malformed payload must surface
// an error to the client, not a hang or a panic.
func TestWorkerBadPayloadSurfacesError(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	env := simnet.NewEnv()
	p := platform.New(env, platform.AWSLambda(), 31)
	d, err := Deploy(p, units, plan, Real)
	if err != nil {
		t.Fatal(err)
	}
	var serveErr error
	env.Go("client", func(proc *simnet.Proc) {
		// Bypass Serve: call the master with a non-tensor payload.
		_, serveErr = p.InvokeFrom(proc, d.Master, platform.Payload{Bytes: 10, Data: "garbage"})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if serveErr == nil {
		t.Fatal("expected error for malformed payload")
	}
}

// TestPipelineSingleChunkSmallModel: a model that fits one function is one
// Pipeline group, fetched once per pass.
func TestPipelineSingleChunkSmallModel(t *testing.T) {
	units := tinyCNN(t)
	runClient(t, platform.AWSLambda(), 37, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := DeployPipeline(p, units, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		res, tr, err := d.ServeTraced(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		if n := len(tracetest.ByKind(tr, trace.KindFetch)); n != 1 {
			t.Errorf("tiny model should fit one chunk, fetched %d", n)
		}
		checkPipelineSplit(t, res, tr, 1)
	})
}

func TestGroupTraceSumsToLatency(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	runClient(t, platform.AWSLambda(), 41, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, ShapeOnly)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, tr, err := d.ServeTraced(proc, nil)
		if err != nil {
			t.Error(err)
			return
		}
		gms := groupMs(tr)
		if len(gms) != len(plan.Groups) {
			t.Errorf("trace has %d groups, want %d", len(gms), len(plan.Groups))
			return
		}
		var sum float64
		for _, g := range gms {
			if g < 0 {
				t.Errorf("negative group time %v", g)
			}
			sum += g
		}
		if diff := res.LatencyMs - sum; diff < -0.5 || diff > 0.5 {
			t.Errorf("group times sum to %.2f, latency %.2f", sum, res.LatencyMs)
		}
	})
}
