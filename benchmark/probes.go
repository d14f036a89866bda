package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"path/filepath"
	goruntime "runtime"
	"strings"
	"time"

	"gillis/internal/adapt"
	"gillis/internal/batching"
	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/graph"
	"gillis/internal/mesh"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// The layer probes time calls into one module's public API at a time, from
// here, with fixed inputs. They say which layer moved when an end-to-end
// metric does; README.md maps each to the end-to-end metric it should move.
// Every probe group runs between two calibrations and its values are
// brought to reference speed by unit (normalise, below).

// probes carries the fixtures the groups share. Groups run in the order of
// probeGroups; a later group may use what an earlier one built.
type probes struct {
	budget    time.Duration // per repeated-call probe
	dir       string        // temp dir for model files
	serverBin string
	seed      int64

	g34    *graph.Graph // resnet34, initialized (graph group)
	x34    *tensor.Tensor
	fwd34  time.Duration     // median monolithic forward (graph group)
	units  []*partition.Unit // resnet34 (planner group)
	model  *perf.Model
	plan34 *partition.Plan
}

var probeGroups = []struct {
	name string
	run  func(*probes) ([]metric, error)
}{
	{"nn", (*probes).kernels},
	{"graph", (*probes).graph},
	{"planner", (*probes).planner},
	{"partition", (*probes).partitionTax},
	{"simnet", (*probes).simnet},
	{"runtime", (*probes).runtime},
	{"gateway", (*probes).gateway},
	{"server", (*probes).server},
}

// normalise brings a value measured between two calibrations to reference
// speed: durations scale with the speed factor, rates against it, and
// ratios and counts are left alone.
func normalise(m metric, f float64) metric {
	switch {
	case m.Unit == "s" || m.Unit == "ms" || m.Unit == "us" || m.Unit == "ns":
		m.Value *= f
	case strings.HasSuffix(m.Unit, "/s"):
		m.Value /= f
	}
	return m
}

// perCall calls fn repeatedly for about budget and returns the median time
// of one call. Fast functions are timed in batches of about a millisecond.
func perCall(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	fn()
	first := time.Since(start)
	batch := int(max(1, time.Millisecond/max(first, 1)))
	samples := []float64{float64(first)}
	for time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		samples = append(samples, float64(time.Since(t0))/float64(batch))
	}
	return time.Duration(median(samples))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(d time.Duration) float64 { return float64(d) / 1e3 }

// kernels: one representative Forward per weighted op kind, as achieved
// GFLOP/s with FLOPs computed from the op's shapes, and the cost of one
// parallel dispatch with nothing to do.
func (p *probes) kernels() ([]metric, error) {
	rng := rand.New(rand.NewSource(weightSeed))
	ops := []struct {
		name  string
		op    nn.Op
		shape []int
	}{
		{"nn.conv_gflops", nn.NewConv2D("conv", 128, 128, 3, 1, 1), []int{128, 28, 28}},
		{"nn.dense_gflops", nn.NewDense("dense", 4096, 4096), []int{4096}},
		{"nn.lstm_gflops", nn.NewLSTM("lstm", 1024, 1024), []int{16, 1024}},
		{"nn.depthwise_gflops", nn.NewDepthwiseConv2D("dw", 256, 3, 1, 1), []int{256, 56, 56}},
	}
	var out []metric
	for _, o := range ops {
		o.op.Init(rng)
		x := tensor.Rand(rng, 1, o.shape...)
		var err error
		d := perCall(p.budget, func() { _, err = o.op.Forward(x) })
		if err != nil {
			return nil, fmt.Errorf("%s: %w", o.name, err)
		}
		out = append(out, metric{o.name, float64(o.op.FLOPs(o.shape)) / d.Seconds() / 1e9, "gflop/s"})
	}
	// 64 items of 1024 scalar ops clears par's parallel threshold.
	d := perCall(p.budget, func() { par.For(64, 1024, func(lo, hi int) {}) })
	return append(out, metric{"par.for_dispatch_us", us(d), "us"}), nil
}

// medianOf3 times three calls of fn one by one.
func medianOf3(fn func() error) (time.Duration, error) {
	return medianOf3Dur(func() (time.Duration, error) {
		t0 := time.Now()
		err := fn()
		return time.Since(t0), err
	})
}

func (p *probes) graph() ([]metric, error) {
	g, err := models.ByName("resnet34")
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	g.Init(weightSeed)
	initD := time.Since(t0)
	p.g34 = g
	p.x34 = tensor.Rand(rand.New(rand.NewSource(p.seed)), 1, g.InShape()...)

	forward := func(g *graph.Graph) func() error {
		return func() error { _, err := g.Forward(p.x34); return err }
	}
	if p.fwd34, err = medianOf3(forward(g)); err != nil {
		return nil, err
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	if err := forward(g)(); err != nil {
		return nil, err
	}
	goruntime.ReadMemStats(&after)

	var fused *graph.Graph
	fuseD := perCall(p.budget, func() { fused, _, err = graph.Fuse(g) })
	if err != nil {
		return nil, err
	}
	fusedD, err := medianOf3(forward(fused))
	if err != nil {
		return nil, err
	}
	return []metric{
		{"graph.init_resnet34_ms", ms(initD), "ms"},
		{"graph.forward_resnet34_ms", ms(p.fwd34), "ms"},
		{"graph.forward_resnet34_allocs", float64(after.Mallocs - before.Mallocs), "count"},
		{"graph.fuse_resnet34_ms", ms(fuseD), "ms"},
		{"graph.forward_fused_resnet34_ms", ms(fusedD), "ms"},
	}, nil
}

// planner: what gillis-server's start-up and the sim set-ups are made of.
func (p *probes) planner() ([]metric, error) {
	var err error
	path := filepath.Join(p.dir, "probe-resnet34.glsm")
	t0 := time.Now()
	if err := modelio.SaveFile(path, p.g34, true); err != nil {
		return nil, err
	}
	saveD := time.Since(t0)
	loadD, err := medianOf3(func() error { _, err := modelio.LoadFile(path); return err })
	if err != nil {
		return nil, err
	}
	linD := perCall(p.budget, func() { p.units, err = partition.Linearize(p.g34) })
	if err != nil {
		return nil, err
	}
	buildD := perCall(p.budget, func() { p.model, err = perf.Build(platform.AWSLambda(), 1, 2, 300) })
	if err != nil {
		return nil, err
	}
	latopt34, err := medianOf3(func() error {
		p.plan34, _, err = core.LatencyOptimal(p.model, p.units, core.Config{})
		return err
	})
	if err != nil {
		return nil, err
	}
	predictD := perCall(p.budget, func() { _, err = p.model.PredictPlan(p.units, p.plan34) })
	if err != nil {
		return nil, err
	}
	thr34, err := medianOf3(func() error {
		_, _, err := core.ThroughputOptimal(p.model, p.units, core.Config{Batch: 4})
		return err
	})
	if err != nil {
		return nil, err
	}
	vgg, err := models.ByName("vgg11")
	if err != nil {
		return nil, err
	}
	vggUnits, err := partition.Linearize(vgg)
	if err != nil {
		return nil, err
	}
	latoptVGG, err := medianOf3(func() error {
		_, _, err := core.LatencyOptimal(p.model, vggUnits, core.Config{})
		return err
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{"modelio.save_resnet34_ms", ms(saveD), "ms"},
		{"modelio.load_resnet34_ms", ms(loadD), "ms"},
		{"partition.linearize_resnet34_ms", ms(linD), "ms"},
		{"perf.build_ms", ms(buildD), "ms"},
		{"perf.predict_plan_us", us(predictD), "us"},
		{"core.latopt_resnet34_ms", ms(latopt34), "ms"},
		{"core.latopt_vgg11_ms", ms(latoptVGG), "ms"},
		{"core.throughput_opt_resnet34_ms", ms(thr34), "ms"},
	}, nil
}

// inSim runs fn as the only client process of pf's simulation.
func inSim(pf *platform.Platform, fn func(*simnet.Proc)) error {
	pf.Env().Go("probe", fn)
	return pf.Env().Run()
}

// realServe deploys units under plan with real kernels on a fresh platform
// and returns the wall time of the deploy and the median wall time of n
// warm serves of x.
func realServe(units []*partition.Unit, plan *partition.Plan, x *tensor.Tensor, n int) (deploy, serve time.Duration, err error) {
	pf := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	t0 := time.Now()
	d, err := runtime.Deploy(pf, units, plan, runtime.Real)
	if err != nil {
		return 0, 0, err
	}
	deploy = time.Since(t0)
	if err := d.Prewarm(); err != nil {
		return 0, 0, err
	}
	var ds []float64
	var serveErr error
	err = inSim(pf, func(proc *simnet.Proc) {
		for i := 0; i < n && serveErr == nil; i++ {
			t0 := time.Now()
			_, serveErr = d.Serve(proc, x)
			ds = append(ds, float64(time.Since(t0)))
		}
	})
	if err == nil {
		err = serveErr
	}
	return deploy, time.Duration(median(ds)), err
}

// partitionTax: a real partitioned serve over a monolithic Forward of the
// same model and input — what slicing, halos, concatenation and payload
// copies add. resnet50 is initialized, planned and served here only.
func (p *probes) partitionTax() ([]metric, error) {
	deploy34, serve34, err := realServe(p.units, p.plan34, p.x34, 3)
	if err != nil {
		return nil, err
	}
	g50, err := models.ByName("resnet50")
	if err != nil {
		return nil, err
	}
	g50.Init(weightSeed)
	fwd50, err := medianOf3(func() error { _, err := g50.Forward(p.x34); return err })
	if err != nil {
		return nil, err
	}
	units50, err := partition.Linearize(g50)
	if err != nil {
		return nil, err
	}
	plan50, _, err := core.LatencyOptimal(p.model, units50, core.Config{})
	if err != nil {
		return nil, err
	}
	_, serve50, err := realServe(units50, plan50, p.x34, 2)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"partition.tax_resnet34", float64(serve34) / float64(p.fwd34), "x"},
		{"partition.tax_resnet50", float64(serve50) / float64(fwd50), "x"},
		{"runtime.deploy_real_resnet34_ms", ms(deploy34), "ms"},
		{"runtime.serve_real_resnet34_ms", ms(serve34), "ms"},
	}, nil
}

func (p *probes) simnet() ([]metric, error) {
	// 64 processes each sleeping 500 times: one timer event per sleep.
	const procs, sleeps = 64, 500
	env := simnet.NewEnv()
	for i := 0; i < procs; i++ {
		env.Go("sleeper", func(proc *simnet.Proc) {
			for j := 0; j < sleeps; j++ {
				proc.Sleep(time.Millisecond)
			}
		})
	}
	t0 := time.Now()
	if err := env.Run(); err != nil {
		return nil, err
	}
	eventsD := time.Since(t0)

	// Two processes pass control back and forth through promises: two
	// resolve→wait hand-offs per round.
	const rounds = 20000
	env = simnet.NewEnv()
	ping := make([]*simnet.Promise[int], rounds)
	pong := make([]*simnet.Promise[int], rounds)
	for i := range ping {
		ping[i], pong[i] = simnet.NewPromise[int](env), simnet.NewPromise[int](env)
	}
	var waitErr error
	env.Go("a", func(proc *simnet.Proc) {
		for i := 0; i < rounds && waitErr == nil; i++ {
			ping[i].Resolve(i)
			_, waitErr = pong[i].Wait(proc)
		}
	})
	env.Go("b", func(proc *simnet.Proc) {
		for i := 0; i < rounds; i++ {
			if _, err := ping[i].Wait(proc); err != nil {
				return
			}
			pong[i].Resolve(i)
		}
	})
	t0 = time.Now()
	if err := env.Run(); err != nil {
		return nil, err
	}
	if waitErr != nil {
		return nil, waitErr
	}
	handoffD := time.Since(t0)

	// Warm invocations of a function that does nothing.
	const invokes = 5000
	pf := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	if err := pf.Register("noop", func(_ *platform.Ctx, in platform.Payload) (platform.Payload, error) {
		return in, nil
	}); err != nil {
		return nil, err
	}
	if err := pf.Prewarm("noop", 1); err != nil {
		return nil, err
	}
	var invokeErr error
	t0 = time.Now()
	err := inSim(pf, func(proc *simnet.Proc) {
		for i := 0; i < invokes && invokeErr == nil; i++ {
			_, invokeErr = pf.InvokeFrom(proc, "noop", platform.Payload{})
		}
	})
	if err == nil {
		err = invokeErr
	}
	if err != nil {
		return nil, err
	}
	invokeD := time.Since(t0)
	return []metric{
		{"simnet.events_per_s", procs * sleeps / eventsD.Seconds(), "1/s"},
		{"simnet.handoff_ns", float64(handoffD) / (2 * rounds), "ns"},
		{"platform.invoke_us", us(invokeD) / invokes, "us"},
	}, nil
}

// serveLoop returns the mean wall time of n warm serves through serve on a
// fresh ShapeOnly deployment of resnet34's plan.
func (p *probes) serveLoop(n int, serve func(*runtime.Deployment, *simnet.Proc) error) (time.Duration, error) {
	pf := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	d, err := runtime.Deploy(pf, p.units, p.plan34, runtime.ShapeOnly)
	if err != nil {
		return 0, err
	}
	if err := d.Prewarm(); err != nil {
		return 0, err
	}
	var serveErr error
	t0 := time.Now()
	err = inSim(pf, func(proc *simnet.Proc) {
		for i := 0; i < n && serveErr == nil; i++ {
			serveErr = serve(d, proc)
		}
	})
	if err == nil {
		err = serveErr
	}
	return time.Since(t0) / time.Duration(n), err
}

func (p *probes) runtime() ([]metric, error) {
	small := smallCNN()
	small.Init(weightSeed)
	smallRep, err := newReplica(small)
	if err != nil {
		return nil, err
	}
	pf := platform.New(simnet.NewEnv(), platform.AWSLambda(), 1)
	deploySmall := perCall(p.budget, func() { _, err = runtime.Deploy(pf, smallRep.units, smallRep.plan, runtime.Real) })
	if err != nil {
		return nil, err
	}

	const serves = 300
	plain, err := p.serveLoop(serves, func(d *runtime.Deployment, proc *simnet.Proc) error {
		_, err := d.Serve(proc, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	traced, err := p.serveLoop(serves, func(d *runtime.Deployment, proc *simnet.Proc) error {
		_, _, err := d.ServeTraced(proc, nil)
		return err
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{"runtime.deploy_real_small_us", us(deploySmall), "us"},
		{"runtime.serve_shape_us", us(plain), "us"},
		{"trace.serve_traced_ratio", float64(traced) / float64(plain), "x"},
	}, nil
}

// gateway: the sim workloads' replays with set-up excluded, the replay's
// variants the workloads do not cover (batching, a controller), and the
// one-arrival replay gillis-server runs per request.
func (p *probes) gateway() ([]metric, error) {
	rw, err := newSimReplay(p.seed)
	if err != nil {
		return nil, err
	}
	if err := rw.start(); err != nil {
		return nil, err
	}
	base := rw.gatewayConfig()
	var replayed *platform.Platform // the last replay's platform, for its metrics registry
	// replay times one gateway.Run of arrivals on a fresh ShapeOnly
	// deployment; mod adjusts the config once the deployment exists.
	replay := func(arrivals []time.Duration, mod func(*gateway.Config, *runtime.Deployment) (gateway.Backend, error)) (time.Duration, error) {
		pf := platform.New(simnet.NewEnv(), rw.cfg, 1)
		d, err := runtime.Deploy(pf, rw.units, rw.plan, runtime.ShapeOnly)
		if err != nil {
			return 0, err
		}
		if err := d.Prewarm(); err != nil {
			return 0, err
		}
		cfg := base
		var backend gateway.Backend = d
		if mod != nil {
			if backend, err = mod(&cfg, d); err != nil {
				return 0, err
			}
		}
		t0 := time.Now()
		_, _, err = gateway.Run(backend, arrivals, cfg)
		replayed = pf
		return time.Since(t0), err
	}
	qps := func(d time.Duration) float64 { return float64(len(rw.arrivals)) / d.Seconds() }

	plainD, err := medianOf3Dur(func() (time.Duration, error) { return replay(rw.arrivals, nil) })
	if err != nil {
		return nil, err
	}
	summaryD := perCall(p.budget, func() { _ = replayed.Metrics().Summary() })
	batchD, err := medianOf3Dur(func() (time.Duration, error) {
		return replay(rw.arrivals, func(cfg *gateway.Config, d *runtime.Deployment) (gateway.Backend, error) {
			cfg.Batch = batching.Config{MaxBatch: 4, MaxDelay: 50 * time.Millisecond}
			return d, nil
		})
	})
	if err != nil {
		return nil, err
	}
	adaptD, err := medianOf3Dur(func() (time.Duration, error) {
		return replay(rw.arrivals, func(cfg *gateway.Config, d *runtime.Deployment) (gateway.Backend, error) {
			sw, err := runtime.NewSwitcher(d)
			if err != nil {
				return nil, err
			}
			ctl, err := adapt.New(p.model, rw.units, sw,
				[]adapt.Candidate{{Name: "latopt", Index: 0, Plan: rw.plan}},
				adapt.Config{SLOMs: cfg.SLOMs, Mode: runtime.ShapeOnly, DisableReplan: true})
			cfg.Controller = ctl
			return sw, err
		})
	})
	if err != nil {
		return nil, err
	}
	var singles []float64
	for start := time.Now(); time.Since(start) < p.budget; {
		d, err := replay([]time.Duration{0}, func(cfg *gateway.Config, d *runtime.Deployment) (gateway.Backend, error) {
			*cfg = gateway.Config{MaxInFlight: 1}
			return d, nil
		})
		if err != nil {
			return nil, err
		}
		singles = append(singles, float64(d))
	}

	mw, err := newSimMesh(p.seed)
	if err != nil {
		return nil, err
	}
	if err := mw.start(); err != nil {
		return nil, err
	}
	meshCfg := mesh.Config{Instances: meshInstances, InstanceMemMB: meshMemMB, MaxPerInstance: 4}
	meshD, err := medianOf3Dur(func() (time.Duration, error) {
		m, err := mesh.New(platform.New(simnet.NewEnv(), meshPlatformCfg(), 1), meshCfg, mw.specs)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		_, _, err = gateway.Run(m, mw.times, mw.gatewayConfig(m))
		return time.Since(t0), err
	})
	if err != nil {
		return nil, err
	}
	meshNewD := perCall(p.budget, func() {
		_, err = mesh.New(platform.New(simnet.NewEnv(), meshPlatformCfg(), 1), meshCfg, mw.specs)
	})
	if err != nil {
		return nil, err
	}
	return []metric{
		{"gateway.replay_qps", qps(plainD), "1/s"},
		{"gateway.single_arrival_us", us(time.Duration(median(singles))), "us"},
		{"batching.replay_qps", qps(batchD), "1/s"},
		{"adapt.replay_qps", qps(adaptD), "1/s"},
		{"mesh.replay_qps", float64(len(mw.times)) / meshD.Seconds(), "1/s"},
		{"mesh.new_us", us(meshNewD), "us"},
		{"trace.registry_summary_us", us(summaryD), "us"},
	}, nil
}

// medianOf3Dur is the median of three calls of a function that times itself.
func medianOf3Dur(fn func() (time.Duration, error)) (time.Duration, error) {
	var ds []float64
	for i := 0; i < 3; i++ {
		d, err := fn()
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(median(ds)), nil
}

// server: real round trips to a gillis-server serving the small CNN plus a
// one-model catalog, from one keep-alive connection.
func (p *probes) server() ([]metric, error) {
	const catalogModel = "rnn-tiny2"
	w, err := newHTTPServing("http_small", p.seed, p.serverBin, p.dir, true)
	if err != nil {
		return nil, err
	}
	srv, err := startServer(p.serverBin, "-modelfile", w.modelFile, "-catalog", catalogModel)
	if err != nil {
		return nil, err
	}
	defer srv.stop()
	c := keepAliveClient()
	defer c.CloseIdleConnections()
	if err := srv.await(func() error { _, err := get(c, srv.url+"/healthz"); return err }); err != nil {
		return nil, err
	}

	healthD := perCall(p.budget, func() { _, err = get(c, srv.url+"/healthz") })
	if err != nil {
		return nil, err
	}
	// Real predicts and in-process replicas of the same requests, in turn.
	var real, inproc []float64
	for i := 0; i < 300; i++ {
		body := w.bodies[i%len(w.bodies)]
		t0 := time.Now()
		if _, err := post(c, srv.url+"/v1/predict", body); err != nil {
			return nil, err
		}
		real = append(real, float64(time.Since(t0)))
		t0 = time.Now()
		if _, err := w.replica.predict(body, nil); err != nil {
			return nil, err
		}
		inproc = append(inproc, float64(time.Since(t0)))
	}
	metricsD := perCall(p.budget, func() { _, err = get(c, srv.url+"/v1/metrics") })
	if err != nil {
		return nil, err
	}

	cg, err := models.ByName(catalogModel)
	if err != nil {
		return nil, err
	}
	x := tensor.Rand(rand.New(rand.NewSource(p.seed)), 1, cg.InShape()...)
	body, err := json.Marshal(predictRequest{Model: catalogModel, Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		return nil, err
	}
	catalogD, err := medianOf3(func() error { _, err := post(c, srv.url+"/v1/predict", body); return err })
	if err != nil {
		return nil, err
	}
	return []metric{
		{"server.healthz_us", us(healthD), "us"},
		{"server.predict_small_p99_ms", percentile(real, 99) / 1e6, "ms"},
		{"server.predict_catalog_ms", ms(catalogD), "ms"},
		{"server.metrics_us", us(metricsD), "us"},
		{"server.http_overhead_us", (median(real) - median(inproc)) / 1e3, "us"},
	}, nil
}
