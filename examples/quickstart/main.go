// Quickstart: build a small CNN, partition it with the latency-optimal
// algorithm, deploy it to the simulated Lambda platform, and serve a real
// inference query through the fork-join runtime — verifying that the
// partitioned answer is bit-identical to local execution.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"gillis/internal/core"
	"gillis/internal/graph"
	"gillis/internal/modelio"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Define a model: a small CNN with a residual block.
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

	// 2. Round-trip through the ONNX-lite interchange format, as a user
	// deploying a pre-trained model would.
	path := "/tmp/demo-cnn.glsm"
	if err := modelio.SaveFile(path, g, true); err != nil {
		return err
	}
	loaded, err := modelio.LoadFile(path)
	if err != nil {
		return err
	}
	fmt.Printf("model: %s, %d ops, %.1f KB of weights\n", loaded.Name, loaded.Len(), float64(loaded.ParamBytes())/1e3)

	// 3. Linearize into units (branch merging + element-wise fusion).
	units, err := partition.Linearize(loaded)
	if err != nil {
		return err
	}
	fmt.Printf("linearized into %d units\n", len(units))

	// 4. Profile the platform and compute the latency-optimal plan.
	cfg := platform.AWSLambda()
	model, err := perf.Build(cfg, 1, 2, 300)
	if err != nil {
		return err
	}
	plan, pred, err := core.LatencyOptimal(model, units, core.Config{})
	if err != nil {
		return err
	}
	fmt.Print(plan)
	fmt.Printf("predicted latency: %.1f ms\n", pred.LatencyMs)

	// 5. Serve a real query through the fork-join runtime and check the
	// output against local execution.
	input := tensor.Rand(rand.New(rand.NewSource(2)), 1, 3, 32, 32)
	want, err := loaded.Forward(input)
	if err != nil {
		return err
	}

	// For a model this small the DP rightly keeps everything on the master
	// (parallelization cannot pay for its communication). To demonstrate
	// the fork-join machinery, also serve under an explicitly parallel
	// plan: channel-partition the stem, spatially partition the residual
	// block across master + workers.
	parallel := &partition.Plan{Model: loaded.Name, Groups: []partition.GroupPlan{
		{First: 0, Last: 0, Option: partition.Option{Dim: partition.DimChannel, Parts: 2}},
		{First: 1, Last: 2, Option: partition.Option{Dim: partition.DimSpatial, Parts: 3}, OnMaster: true},
		{First: 3, Last: 5, Option: partition.Option{Dim: partition.DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := parallel.Validate(units); err != nil {
		return err
	}

	// One simulation: a fresh platform, this function as its client process,
	// and the client's error back when the virtual clock has drained.
	_, err = platform.Run(cfg, 7, func(p *platform.Platform, proc *simnet.Proc) error {
		d, err := runtime.Deploy(p, units, plan, runtime.Real)
		if err != nil {
			return err
		}
		if err := d.Prewarm(); err != nil {
			return err
		}
		res, err := d.Serve(proc, input)
		if err != nil {
			return err
		}
		if !tensor.Equal(res.Outputs[0], want) {
			return fmt.Errorf("partitioned output differs from local execution")
		}
		best, prob := 0, float32(0)
		for i, v := range res.Outputs[0].Data() {
			if v > prob {
				best, prob = i, v
			}
		}
		fmt.Printf("served in %.1f ms (simulated), billed %d ms; prediction: class %d (p=%.3f)\n",
			res.LatencyMs, res.BilledMs, best, prob)

		dp, err := runtime.Deploy(p, units, parallel, runtime.Real)
		if err != nil {
			return err
		}
		if err := dp.Prewarm(); err != nil {
			return err
		}
		resP, err := dp.Serve(proc, input)
		if err != nil {
			return err
		}
		if !tensor.Equal(resP.Outputs[0], want) {
			return fmt.Errorf("fork-join output differs from local execution")
		}
		fmt.Printf("fork-join plan (channel×2 + spatial×3 across 4 workers): %.1f ms, billed %d ms\n",
			resP.LatencyMs, resP.BilledMs)
		fmt.Println("both outputs are bit-identical to local execution ✓")
		return nil
	})
	return err
}
