// Package runtime is Gillis's serving runtime: it deploys a partitioned
// model onto a (simulated) serverless platform and executes inference
// queries with the fork-join model of §III-B — a master function invokes
// worker functions holding model partitions, computes its own partitions
// when the plan places them there, reassembles partial tensors, and
// produces the final result over multiple fork-join rounds.
//
// Two baselines from §V are provided alongside: Default (whole model in one
// function) falls out of a trivial plan, and Pipeline (a single function
// streaming layer partitions from object storage) is implemented by
// DeployPipeline.
package runtime

import (
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/profile"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// ExecMode selects how workers execute their partitions.
type ExecMode int

// Execution modes.
const (
	// Real performs the actual tensor math; outputs are bit-exact with
	// monolithic execution. Use for correctness at small scale.
	Real ExecMode = iota + 1
	// ShapeOnly skips tensor math (timing still reflects the partition's
	// exact FLOPs and payload bytes). Use for large-model experiments.
	ShapeOnly
)

// groupRuntime precomputes everything a group needs at query time.
type groupRuntime struct {
	gp          partition.GroupPlan
	units       []*partition.Unit
	flops       int64 // monolithic group FLOPs
	opBytes     int64 // monolithic bytes touched
	opCount     int   // number of ops (dispatch overheads)
	spatial     []partition.PartSlice
	channel     []partition.ChannelSlice
	inBytes     int64 // full group input payload
	outBytes    int64 // full group output payload
	outShape    []int
	weightBytes int64   // partition weight bytes (fallback fetch size)
	partFLOPs   []int64 // per partition
	partIn      []int64
	partOut     []int64
	workers     []string // worker function name per partition
}

// Deployment is a model served under a plan on a platform.
type Deployment struct {
	p      *platform.Platform
	units  []*partition.Unit
	plan   *partition.Plan
	mode   ExecMode
	prefix string
	groups []*groupRuntime
	opts   deployOpts
	hist   *latencyHistory // per-group worker latencies (hedging trigger)

	// hedgeOff suppresses hedged backup requests at serve time without
	// redeploying — the gateway's brownout mode sheds hedge cost this way.
	hedgeOff atomic.Bool

	// Master is the entry function name.
	Master string
}

// SetHedging enables or disables hedged backup requests between queries.
// Disabling it overrides WithHedging at serve time (retries and fallback
// stay active); re-enabling restores the configured behaviour. Safe to call
// from a controller process between queries — in-flight hedge races are
// unaffected.
func (d *Deployment) SetHedging(enabled bool) { d.hedgeOff.Store(!enabled) }

// Deploy validates the plan against the platform's memory budget, registers
// the master and worker functions, and returns a ready deployment. It
// returns an error (the deployment-time analogue of the paper's OOM
// failures) if any function's resident set exceeds the weight budget.
func Deploy(p *platform.Platform, units []*partition.Unit, plan *partition.Plan, mode ExecMode, opts ...DeployOption) (*Deployment, error) {
	if err := plan.Validate(units); err != nil {
		return nil, err
	}
	if mode != Real && mode != ShapeOnly {
		return nil, fmt.Errorf("runtime: invalid exec mode %d", mode)
	}
	if mode == Real {
		for _, u := range units {
			if !u.Sub.Initialized() {
				return nil, fmt.Errorf("runtime: Real mode requires initialized weights (unit %d)", u.Index)
			}
		}
	}
	budget := int64(p.Config().WeightBudgetMB) * 1e6

	d := &Deployment{
		p:      p,
		units:  units,
		plan:   plan,
		mode:   mode,
		prefix: fmt.Sprintf("%s-d%d", plan.Model, p.NextDeploySeq()),
		hist:   newLatencyHistory(),
	}
	for _, opt := range opts {
		opt(&d.opts)
	}
	d.Master = d.prefix + "-master"

	var masterBytes int64
	for gi, gp := range plan.Groups {
		gr, err := buildGroupRuntime(units, gp)
		if err != nil {
			return nil, err
		}
		ext, err := partition.GroupExtent(units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return nil, err
		}
		if ext.WeightBytes+ext.ActBytes > budget {
			return nil, fmt.Errorf("runtime: group %d partition needs %d MB, exceeding the %d MB function budget (OOM)",
				gi, (ext.WeightBytes+ext.ActBytes)/1e6, budget/1e6)
		}
		if gp.OnMaster {
			masterBytes += ext.WeightBytes
		}
		gr.weightBytes = ext.WeightBytes
		gr.workers = make([]string, gp.Option.Parts)
		for part := range gr.workers {
			gr.workers[part] = fmt.Sprintf("%s-g%d-p%d", d.prefix, gi, part)
		}
		d.groups = append(d.groups, gr)
	}
	if masterBytes > budget {
		return nil, fmt.Errorf("runtime: master resident weights %d MB exceed the %d MB budget (OOM)",
			masterBytes/1e6, budget/1e6)
	}

	if err := p.Register(d.Master, d.masterHandler); err != nil {
		return nil, err
	}
	if d.opts.fallback {
		// Keep a storage copy of every remote DimNone group's weights so
		// the master can degrade gracefully when that worker is down.
		for gi, gr := range d.groups {
			if gr.gp.Option.Dim == partition.DimNone && !gr.gp.OnMaster {
				p.Seed(d.fallbackKey(gi), platform.Object{Bytes: gr.weightBytes})
			}
		}
	}
	for gi, gr := range d.groups {
		parts := gr.gp.Option.Parts
		for part := 0; part < parts; part++ {
			if gr.gp.OnMaster && part == 0 {
				continue // the master computes partition 0 itself
			}
			if gr.gp.Option.Dim == partition.DimNone && gr.gp.OnMaster {
				continue
			}
			name := d.workerName(gi, part)
			gi, part := gi, part
			err := p.Register(name, func(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
				return d.workerHandler(ctx, gi, part, payload)
			})
			if err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// workerName is formatted once, in Deploy: a replay launches workers by the
// hundred thousand.
func (d *Deployment) workerName(group, part int) string { return d.groups[group].workers[part] }

// Prefix returns the deployment's unique function-name prefix. It is
// process-order dependent (a global deployment counter); golden-trace tests
// strip it from serialized traces to stay stable across test orderings.
func (d *Deployment) Prefix() string { return d.prefix }

// Platform returns the platform the deployment serves on. Gateways and
// autoscalers use it to observe warm pools and billed totals.
func (d *Deployment) Platform() *platform.Platform { return d.p }

// WarmSets reports how many warm instance sets the deployment has standing
// by, counted as the master function's idle warm instances (Prewarm warms
// exactly one master per set).
func (d *Deployment) WarmSets() int { return d.p.WarmCount(d.Master) }

// Prewarm warms the master and one instance of every worker function,
// modeling Gillis's periodic warm-up pings (§III-A).
func (d *Deployment) Prewarm() error {
	if err := d.p.Prewarm(d.Master, 1); err != nil {
		return err
	}
	for gi, gr := range d.groups {
		for part := 0; part < gr.gp.Option.Parts; part++ {
			if gr.gp.OnMaster && part == 0 {
				continue
			}
			if gr.gp.Option.Dim == partition.DimNone && gr.gp.OnMaster {
				continue
			}
			if err := d.p.Prewarm(d.workerName(gi, part), 1); err != nil {
				return err
			}
		}
	}
	return nil
}

// Result reports one served query.
type Result struct {
	// Output is the inference result (nil in ShapeOnly mode).
	Output *tensor.Tensor
	// LatencyMs is the inference latency: the master function's duration.
	LatencyMs float64
	// GroupMs traces the master-observed duration of each fork-join round,
	// in plan order (they sum to roughly LatencyMs).
	GroupMs []float64
	// BilledMs is the total billed function duration (master + workers),
	// C^S(G) of Eq. (2).
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Resilience reports the query's resilience telemetry (all zero for a
	// naive deployment on a fault-free platform).
	Resilience Resilience
}

// masterResp is the master function's response body.
type masterResp struct {
	output  *tensor.Tensor
	groupMs []float64
	resil   Resilience
}

// Serve executes one inference query from a client process. When the
// deployment has a retry budget, it also covers the master invocation
// itself — a crashed or evicted master is re-invoked with the same input,
// so Real-mode outputs are unaffected.
func (d *Deployment) Serve(proc *simnet.Proc, input *tensor.Tensor) (Result, error) {
	return d.serve(proc, input, nil)
}

// ServeTraced is Serve with query-level tracing: it records a span tree
// rooted at the query — invocations with their cold-start/transfer/execution
// phases, fork-join rounds, worker calls with retries and hedges, per-span
// billed-ms attribution — against the simulation's virtual clock. The trace
// is complete once the simulation drains (late-settling abandoned work still
// closes its spans after the query returns).
func (d *Deployment) ServeTraced(proc *simnet.Proc, input *tensor.Tensor) (Result, *trace.Trace, error) {
	tr := trace.New("query", d.p.Env().Stamp)
	root := tr.Root()
	res, err := d.serve(proc, input, root)
	if err != nil {
		root.Fail("", err.Error())
	} else if d.mode == Real && res.Output != nil {
		// Pin the Real-mode output in the trace: bitwise-deterministic
		// kernels yield the same digest at any kernel parallelism.
		root.SetAttr("output-digest", fmt.Sprintf("%016x", tensorDigest(res.Output)))
	}
	root.EndSpan()
	return res, tr, err
}

func (d *Deployment) serve(proc *simnet.Proc, input *tensor.Tensor, root *trace.Span) (Result, error) {
	payload := platform.Payload{Bytes: tensor.SizeBytes(d.units[0].InShape)}
	if d.mode == Real {
		if input == nil {
			return Result{}, fmt.Errorf("runtime: Real mode requires an input tensor")
		}
		payload.Data = input
		payload.Bytes = input.Bytes()
	}
	var lastErr error
	var extra int64
	clientRetries := 0
	for attempt := 0; attempt <= d.opts.retries; attempt++ {
		if attempt > 0 {
			clientRetries++
			root.Event("client-retry", "attempt", strconv.Itoa(attempt))
			proc.Sleep(msToDur(d.opts.backoff(attempt)))
		}
		res, err := d.p.InvokeFromSpan(proc, d.Master, payload, root)
		if err != nil {
			extra += platform.BilledMsOf(err)
			lastErr = err
			continue
		}
		out := Result{
			LatencyMs: res.HandlerMs,
			BilledMs:  res.TotalBilledMs,
			ColdStart: res.ColdStart,
		}
		mr, ok := res.Resp.Data.(*masterResp)
		if !ok {
			return Result{}, fmt.Errorf("runtime: master returned %T", res.Resp.Data)
		}
		out.Resilience = mr.resil
		out.Resilience.Retries += clientRetries
		out.Resilience.FaultsSurvived += clientRetries
		out.Resilience.ExtraBilledMs += extra
		out.GroupMs = mr.groupMs
		if d.mode == Real {
			if mr.output == nil {
				return Result{}, fmt.Errorf("runtime: master returned no tensor in Real mode")
			}
			out.Output = mr.output
		}
		d.recordQueryMetrics(out)
		return out, nil
	}
	return Result{}, lastErr
}

// recordQueryMetrics aggregates one served query into the platform's metrics
// registry (shared across queries, and across platforms via UseMetrics).
func (d *Deployment) recordQueryMetrics(out Result) {
	reg := d.p.Metrics()
	reg.Counter("runtime.queries").Inc()
	r := out.Resilience
	reg.Counter("runtime.retries").Add(int64(r.Retries))
	reg.Counter("runtime.hedges").Add(int64(r.Hedges))
	reg.Counter("runtime.hedge_wins").Add(int64(r.HedgesWon))
	reg.Counter("runtime.fallbacks").Add(int64(r.Fallbacks))
	reg.Counter("runtime.faults_survived").Add(int64(r.FaultsSurvived))
	reg.Counter("runtime.extra_billed_ms").Add(r.ExtraBilledMs)
	reg.Histogram("runtime.query_latency_ms").Observe(out.LatencyMs)
	reg.Histogram("runtime.query_billed_ms").Observe(float64(out.BilledMs))
}

// tensorDigest is a deterministic FNV-1a over the tensor's float bits.
func tensorDigest(t *tensor.Tensor) uint64 {
	const offset, prime = 14695981039346656037, 1099511628211
	h := uint64(offset)
	for _, v := range t.Data() {
		b := math.Float32bits(v)
		for s := 0; s < 32; s += 8 {
			h ^= uint64(byte(b >> s))
			h *= prime
		}
	}
	return h
}

// observeOps reports a per-operator kernel event into sp for every operator
// forward executed while it is installed. It returns the restore function.
// Install it only around pure Go forwards (no virtual-time sleeps), so the
// scoped process-wide hook never spans a scheduling point.
func observeOps(sp *trace.Span) (restore func()) {
	if sp == nil {
		return func() {}
	}
	return nn.SetObserver(func(op nn.Op) { sp.Event("op:" + op.Name()) })
}

// masterHandler orchestrates the fork-join rounds (Fig. 4). Batched
// invocations (a *batchReq body) take the batched round path; single-query
// payloads are untouched.
func (d *Deployment) masterHandler(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
	if br, ok := payload.Data.(*batchReq); ok {
		return d.masterHandlerBatch(ctx, br)
	}
	var cur *tensor.Tensor
	if d.mode == Real {
		var ok bool
		cur, ok = payload.Data.(*tensor.Tensor)
		if !ok {
			return platform.Payload{}, fmt.Errorf("runtime: master got %T, want tensor", payload.Data)
		}
	}
	qs := &queryStats{}
	groupMs := make([]float64, 0, len(d.groups))
	for gi, gr := range d.groups {
		before := ctx.Proc().Now()
		gsp := ctx.Span().Childf(trace.KindGroup, "group%d", gi)
		next, err := d.runGroup(ctx, gi, gr, cur, qs, gsp)
		if err != nil {
			gsp.Fail("", err.Error())
			gsp.EndSpan()
			return platform.Payload{}, err
		}
		gsp.EndSpan()
		groupMs = append(groupMs, float64(ctx.Proc().Now()-before)/1e6)
		cur = next
	}
	last := d.groups[len(d.groups)-1]
	return platform.Payload{Bytes: last.outBytes, Data: &masterResp{output: cur, groupMs: groupMs, resil: qs.snapshot()}}, nil
}

// runGroup executes one layer group from the master's perspective.
func (d *Deployment) runGroup(ctx *platform.Ctx, gi int, gr *groupRuntime, in *tensor.Tensor, qs *queryStats, gsp *trace.Span) (*tensor.Tensor, error) {
	opt := gr.gp.Option

	// Whole group on the master: local execution.
	if opt.Dim == partition.DimNone && gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-compute")
		d.computeScaled(ctx, gr, 1.0)
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			out, err := partition.ForwardChain(gr.units, in)
			restoreObs()
			restore()
			csp.EndSpan()
			return out, err
		}
		csp.EndSpan()
		return nil, nil
	}

	// Whole group on a single worker: remote round (with retries, and a
	// master-local fallback when graceful degradation is enabled).
	if opt.Dim == partition.DimNone {
		req := platform.Payload{Bytes: gr.inBytes}
		if d.mode == Real {
			req.Data = in
		}
		res, err := d.callWorker(ctx.Proc(), ctx, gi, 0, req, qs, gsp)
		if err != nil {
			if d.opts.fallback {
				return d.fallbackLocal(ctx, gi, gr, in, qs, gsp)
			}
			return nil, err
		}
		return d.tensorOf(res.Resp)
	}

	// Parallel round: fork workers, optionally compute partition 0 locally,
	// join and reassemble.
	firstWorker := 0
	if gr.gp.OnMaster {
		firstWorker = 1
	}
	promises := make([]*simnet.Promise[platform.InvokeResult], 0, opt.Parts-firstWorker)
	callSpans := make([]*trace.Span, 0, opt.Parts-firstWorker)
	for part := firstWorker; part < opt.Parts; part++ {
		req := platform.Payload{Bytes: gr.partIn[part]}
		if d.mode == Real {
			slab, err := d.partInput(gr, part, in)
			if err != nil {
				abandonUnsettled(promises, callSpans)
				return nil, err
			}
			req.Data = slab
		}
		pr, csp := d.launchWorker(ctx, gi, part, req, qs, gsp)
		promises = append(promises, pr)
		callSpans = append(callSpans, csp)
	}
	// When the round fails, the master stops waiting: sibling calls still in
	// flight settle after the group span ends, which trace invariants only
	// accept once marked abandoned.
	fail := func(err error) (*tensor.Tensor, error) {
		abandonUnsettled(promises, callSpans)
		return nil, err
	}

	outs := make([]*tensor.Tensor, opt.Parts)
	if gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-part0")
		d.computeScaled(ctx, gr, flopFrac(gr, 0))
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			out, err := d.execPart(gr, 0, in)
			restoreObs()
			restore()
			if err != nil {
				csp.EndSpan()
				return fail(err)
			}
			outs[0] = out
		}
		csp.EndSpan()
	}
	for i, pr := range promises {
		res, err := pr.Wait(ctx.Proc())
		if err != nil {
			return fail(err)
		}
		if d.mode == Real {
			t, err := d.tensorOf(res.Resp)
			if err != nil {
				return fail(err)
			}
			outs[firstWorker+i] = t
		}
	}
	// Reassembly is memory-bandwidth work on the master.
	rsp := gsp.Child(trace.KindCompute, "reassemble")
	ctx.ComputeOp(0, gr.outBytes)
	if d.mode != Real {
		rsp.EndSpan()
		return nil, nil
	}
	dim := 1 // spatial: concatenate rows
	if opt.Dim == partition.DimChannel {
		dim = 0
	}
	out, err := tensor.ConcatDim(dim, outs...)
	rsp.EndSpan()
	return out, err
}

// workerHandler computes one partition of one group.
func (d *Deployment) workerHandler(ctx *platform.Ctx, gi, part int, payload platform.Payload) (platform.Payload, error) {
	if br, ok := payload.Data.(*batchReq); ok {
		return d.workerHandlerBatch(ctx, gi, part, br)
	}
	gr := d.groups[gi]
	if gr.gp.Option.Dim == partition.DimNone {
		d.computeScaled(ctx, gr, 1.0)
		resp := platform.Payload{Bytes: gr.outBytes}
		if d.mode == Real {
			in, ok := payload.Data.(*tensor.Tensor)
			if !ok {
				return platform.Payload{}, fmt.Errorf("runtime: worker got %T", payload.Data)
			}
			restore := d.opts.kernelScope()
			restoreObs := observeOps(ctx.Span())
			out, err := partition.ForwardChain(gr.units, in)
			restoreObs()
			restore()
			if err != nil {
				return platform.Payload{}, err
			}
			resp.Data = out
		}
		return resp, nil
	}

	d.computeScaled(ctx, gr, flopFrac(gr, part))
	resp := platform.Payload{Bytes: gr.partOut[part]}
	if d.mode == Real {
		in, ok := payload.Data.(*tensor.Tensor)
		if !ok {
			return platform.Payload{}, fmt.Errorf("runtime: worker got %T", payload.Data)
		}
		restore := d.opts.kernelScope()
		restoreObs := observeOps(ctx.Span())
		out, err := d.execPartFromSlab(gr, part, in)
		restoreObs()
		restore()
		if err != nil {
			return platform.Payload{}, err
		}
		resp.Data = out
	}
	return resp, nil
}

// computeScaled advances the worker's clock by the group's ops scaled to
// the partition's share of the work (exact FLOPs incl. halo redundancy).
// The modeled per-instance vCPU count divides FLOP time by its Amdahl
// speedup; bytes touched stay unscaled (memory bandwidth is shared across
// an instance's cores).
func (d *Deployment) computeScaled(ctx *platform.Ctx, gr *groupRuntime, frac float64) {
	ctx.ComputeOp(int64(float64(gr.flops)*frac/d.opts.speedup()), int64(float64(gr.opBytes)*frac))
}

func flopFrac(gr *groupRuntime, part int) float64 {
	if gr.flops == 0 {
		return 0
	}
	return float64(gr.partFLOPs[part]) / float64(gr.flops)
}

// partInput slices the group input for a partition (Real mode).
func (d *Deployment) partInput(gr *groupRuntime, part int, in *tensor.Tensor) (*tensor.Tensor, error) {
	if gr.gp.Option.Dim == partition.DimChannel {
		return in, nil // channel partitions consume the full input
	}
	return partition.InputSlab(in, gr.spatial[part])
}

// execPart runs a partition from the full group input (master side).
func (d *Deployment) execPart(gr *groupRuntime, part int, in *tensor.Tensor) (*tensor.Tensor, error) {
	slab, err := d.partInput(gr, part, in)
	if err != nil {
		return nil, err
	}
	return d.execPartFromSlab(gr, part, slab)
}

// execPartFromSlab runs a partition from its input slab (worker side).
func (d *Deployment) execPartFromSlab(gr *groupRuntime, part int, slab *tensor.Tensor) (*tensor.Tensor, error) {
	if gr.gp.Option.Dim == partition.DimChannel {
		return gr.channel[part].Sub.Forward(slab)
	}
	return partition.ExecSpatialPart(gr.units, gr.spatial[part], slab)
}

func (d *Deployment) tensorOf(p platform.Payload) (*tensor.Tensor, error) {
	if d.mode != Real {
		return nil, nil
	}
	t, ok := p.Data.(*tensor.Tensor)
	if !ok {
		return nil, fmt.Errorf("runtime: response payload %T, want tensor", p.Data)
	}
	return t, nil
}

// buildGroupRuntime precomputes a group's slices, FLOPs and payload sizes.
func buildGroupRuntime(units []*partition.Unit, gp partition.GroupPlan) (*groupRuntime, error) {
	group := units[gp.First : gp.Last+1]
	gr := &groupRuntime{gp: gp, units: group}
	for _, u := range group {
		gr.flops += u.FLOPs
		shapes := u.NodeShapes()
		for _, node := range u.Sub.Nodes() {
			ins := make([][]int, len(node.Inputs))
			for i, in := range node.Inputs {
				if in < 0 {
					ins[i] = u.InShape
				} else {
					ins[i] = shapes[in]
				}
			}
			b, err := profile.OpBytes(node.Op, ins)
			if err != nil {
				return nil, err
			}
			gr.opBytes += b
			gr.opCount++
		}
	}
	gr.inBytes = tensor.SizeBytes(group[0].InShape)
	gr.outBytes = tensor.SizeBytes(group[len(group)-1].OutShape)
	gr.outShape = group[len(group)-1].OutShape

	switch gp.Option.Dim {
	case partition.DimNone:
		gr.partFLOPs = []int64{gr.flops}
		gr.partIn = []int64{gr.inBytes}
		gr.partOut = []int64{gr.outBytes}
	case partition.DimSpatial:
		slices, err := partition.SpatialSlices(group, gp.Option.Parts)
		if err != nil {
			return nil, err
		}
		gr.spatial = slices
		for _, ps := range slices {
			gr.partFLOPs = append(gr.partFLOPs, ps.FLOPs)
			gr.partIn = append(gr.partIn, ps.InBytes)
			gr.partOut = append(gr.partOut, ps.OutBytes)
		}
	case partition.DimChannel:
		slices, err := partition.ChannelSlices(group[0], gp.Option.Parts)
		if err != nil {
			return nil, err
		}
		gr.channel = slices
		for _, cs := range slices {
			gr.partFLOPs = append(gr.partFLOPs, cs.FLOPs)
			gr.partIn = append(gr.partIn, cs.InBytes)
			gr.partOut = append(gr.partOut, cs.OutBytes)
		}
	default:
		return nil, fmt.Errorf("runtime: unknown option %v", gp.Option)
	}
	return gr, nil
}

// DeployDefault deploys the Default baseline: the whole model in a single
// function (§V-B baseline 1).
func DeployDefault(p *platform.Platform, units []*partition.Unit, mode ExecMode, opts ...DeployOption) (*Deployment, error) {
	plan := &partition.Plan{
		Model: "default-" + modelNameOf(units),
		Groups: []partition.GroupPlan{{
			First: 0, Last: len(units) - 1,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}},
	}
	return Deploy(p, units, plan, mode, opts...)
}

// PredictedPlanOf exposes the deployment's plan (for reporting).
func (d *Deployment) Plan() *partition.Plan { return d.plan }

func modelNameOf(units []*partition.Unit) string {
	name := units[0].Sub.Name
	for i := 0; i < len(name); i++ {
		if name[i] == '[' {
			return name[:i]
		}
	}
	return name
}
