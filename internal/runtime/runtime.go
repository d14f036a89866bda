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
	"errors"
	"fmt"
	"math"
	"strconv"

	"gillis/internal/graph"
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
	gp      partition.GroupPlan
	units   []*partition.Unit
	ext     partition.Extent // per-partition FLOPs and payloads
	slices  partition.Slices // the partitions' row or channel slices
	parts   []*graph.Graph   // the graph each partition runs (Real mode)
	opBytes int64            // monolithic bytes touched
	workers []string         // worker function name per partition
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
	hedgeOff bool

	master  *platform.Function // polled by WarmSets on every control tick
	metrics queryMetrics

	// Master is the entry function name.
	Master string
}

// SetHedging enables or disables hedged backup requests between queries.
// Disabling it overrides WithHedging at serve time (retries and fallback
// stay active); re-enabling restores the configured behaviour. Safe to call
// from a controller process between queries — in-flight hedge races are
// unaffected.
func (d *Deployment) SetHedging(enabled bool) { d.hedgeOff = !enabled }

// ErrOOM is what Deploy's error wraps when a function's resident set exceeds
// the platform's weight budget: the deployment-time analogue of the paper's
// OOM failures.
var ErrOOM = errors.New("OOM")

// Deploy validates the plan against the platform's memory budget, registers
// the master and worker functions, and returns a ready deployment. Its error
// is ErrOOM if any function's resident set exceeds the weight budget.
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
		ext, slices, err := partition.GroupSlices(units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return nil, err
		}
		if need := ext.ResidentBytes(1); need > budget {
			return nil, fmt.Errorf("runtime: group %d partition needs %d MB, exceeding the %d MB function budget (%w)",
				gi, need/1e6, budget/1e6, ErrOOM)
		}
		if gp.OnMaster {
			masterBytes += ext.WeightBytes
		}
		group := units[gp.First : gp.Last+1]
		opBytes, err := groupOpBytes(group)
		if err != nil {
			return nil, err
		}
		gr := &groupRuntime{gp: gp, units: group, ext: ext, slices: slices, opBytes: opBytes}
		if mode == Real {
			if gr.parts, err = slices.Graphs(group, gp.Option); err != nil {
				return nil, err
			}
		}
		gr.workers = make([]string, gp.Option.Parts)
		for part := range gr.workers {
			gr.workers[part] = fmt.Sprintf("%s-g%d-p%d", d.prefix, gi, part)
		}
		d.groups = append(d.groups, gr)
	}
	if masterBytes > budget {
		return nil, fmt.Errorf("runtime: master resident weights %d MB exceed the %d MB budget (%w)",
			masterBytes/1e6, budget/1e6, ErrOOM)
	}

	if err := p.Register(d.Master, d.masterHandler); err != nil {
		return nil, err
	}
	d.master = p.Function(d.Master)
	if d.opts.fallback {
		// Keep a storage copy of every remote DimNone group's weights so
		// the master can degrade gracefully when that worker is down.
		for gi, gr := range d.groups {
			if gr.gp.Option.Dim == partition.DimNone && !gr.gp.OnMaster {
				p.Seed(d.fallbackKey(gi), platform.Object{Bytes: gr.ext.WeightBytes})
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
func (d *Deployment) WarmSets() int { return d.master.WarmCount() }

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

// Result reports one served fork-join pass: Size queries (one for Serve),
// carried through the plan's rounds together.
type Result struct {
	// Outputs holds one inference result per query, in input order (nil in
	// ShapeOnly mode).
	Outputs []*tensor.Tensor
	// Size is the number of queries the pass carried.
	Size int
	// LatencyMs is the inference latency: the master function's duration.
	// Every query of the pass observes it.
	LatencyMs float64
	// GroupMs traces the master-observed duration of each fork-join round,
	// in plan order (they sum to roughly LatencyMs).
	GroupMs []float64
	// BilledMs is the total billed function duration (master + workers),
	// C^S(G) of Eq. (2), for the whole pass; callers apportion it across
	// queries.
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Resilience reports the pass's resilience telemetry (all zero for a
	// naive deployment on a fault-free platform).
	Resilience Resilience
}

// request is the in-process body of every master and worker invocation.
// inputs is nil in ShapeOnly mode; size is always set, so handlers scale
// their modeled compute and payloads even without tensors.
type request struct {
	size   int
	inputs []*tensor.Tensor
}

// response is the body of every Real-mode worker reply (outputs only) and of
// every master reply.
type response struct {
	outputs []*tensor.Tensor
	groupMs []float64
	resil   Resilience
}

// Serve executes one inference query from a client process: ServeBatch with
// a batch of one.
func (d *Deployment) Serve(proc *simnet.Proc, input *tensor.Tensor) (Result, error) {
	res, _, err := d.ServeBatch(proc, batchOfOne(input), 1, false)
	return res, err
}

// ServeTraced is Serve with query-level tracing (see ServeBatch).
func (d *Deployment) ServeTraced(proc *simnet.Proc, input *tensor.Tensor) (Result, *trace.Trace, error) {
	return d.ServeBatch(proc, batchOfOne(input), 1, true)
}

// batchOfOne is the inputs argument of a single query: nil stays nil (a
// ShapeOnly serve carries no tensors).
func batchOfOne(input *tensor.Tensor) []*tensor.Tensor {
	if input == nil {
		return nil
	}
	return []*tensor.Tensor{input}
}

// ServeBatch executes size queries as a single fork-join pass: per-round
// invocation overheads (request overhead, cold starts, per-op dispatch) are
// paid once per pass, while modeled compute and payload bytes scale linearly
// with size. In Real mode inputs carries one tensor per query and size must
// equal len(inputs); in ShapeOnly mode inputs is nil and size alone scales
// the model. Real-mode outputs are bitwise identical to serving the inputs
// one at a time. When the deployment has a retry budget, it also covers the
// master invocation itself — a crashed or evicted master is re-invoked with
// the same inputs, so outputs are unaffected.
//
// With traced set it records a span tree rooted at the query — invocations
// with their cold-start/transfer/execution phases, fork-join rounds, worker
// calls with retries and hedges, per-span billed-ms attribution — against
// the simulation's virtual clock. The trace is complete once the simulation
// drains (late-settling abandoned work still closes its spans after the
// serve returns). Untraced serves return a nil trace.
func (d *Deployment) ServeBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int, traced bool) (Result, *trace.Trace, error) {
	var tr *trace.Trace
	if traced {
		tr = trace.New("query", d.p.Env().Stamp)
	}
	root := tr.Root()
	defer root.EndSpan()
	fail := func(err error) (Result, *trace.Trace, error) {
		root.Fail("", err.Error())
		return Result{}, tr, err
	}

	req := &request{size: size}
	payload := platform.Payload{Bytes: tensor.SizeBytes(d.units[0].InShape) * int64(size), Data: req}
	if d.mode == Real {
		if len(inputs) == 0 {
			return fail(fmt.Errorf("runtime: Real mode requires input tensors"))
		}
		if size != len(inputs) {
			return fail(fmt.Errorf("runtime: batch size %d != %d inputs", size, len(inputs)))
		}
		req.inputs = inputs
		payload.Bytes = 0
		for _, in := range inputs {
			payload.Bytes += in.Bytes()
		}
	} else if size <= 0 {
		return fail(fmt.Errorf("runtime: batch size %d", size))
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
		mr, ok := res.Resp.Data.(*response)
		if !ok {
			return fail(fmt.Errorf("runtime: master returned %T", res.Resp.Data))
		}
		if d.mode == Real && len(mr.outputs) != size {
			return fail(fmt.Errorf("runtime: master returned %d outputs for %d queries", len(mr.outputs), size))
		}
		out := Result{
			Outputs:    mr.outputs,
			Size:       size,
			LatencyMs:  res.HandlerMs,
			GroupMs:    mr.groupMs,
			BilledMs:   res.TotalBilledMs,
			ColdStart:  res.ColdStart,
			Resilience: mr.resil,
		}
		out.Resilience.Retries += clientRetries
		out.Resilience.FaultsSurvived += clientRetries
		out.Resilience.ExtraBilledMs += extra
		d.recordMetrics(out)
		stampDigests(root, out.Outputs)
		return out, tr, nil
	}
	return fail(lastErr)
}

// stampDigests pins a traced pass's Real-mode outputs on the trace root:
// bitwise-deterministic kernels yield the same digests at any kernel
// parallelism. A single query keeps the bare attribute name.
func stampDigests(root *trace.Span, outputs []*tensor.Tensor) {
	if root == nil {
		return
	}
	for e, out := range outputs {
		key := "output-digest"
		if len(outputs) > 1 {
			key += "-" + strconv.Itoa(e)
		}
		root.SetAttr(key, fmt.Sprintf("%016x", tensorDigest(out)))
	}
}

// queryMetrics are the registry handles recordMetrics records into. They
// are resolved on the first served pass, not at Deploy, so a deployment that
// never serves adds no zero-valued metric to the registry's Summary; and
// again whenever UseMetrics has swapped the platform's registry since.
type queryMetrics struct {
	reg                                            *trace.Registry
	queries, retries, hedges, hedgeWins, fallbacks *trace.Counter
	faultsSurvived, extraBilledMs                  *trace.Counter
	latencyMs, billedMs                            *trace.Histogram
}

// recordMetrics aggregates one served pass into the platform's metrics
// registry (shared across passes, and across platforms via UseMetrics): Size
// queries, one latency and one billing observation.
func (d *Deployment) recordMetrics(out Result) {
	m := &d.metrics
	if reg := d.p.Metrics(); m.reg != reg {
		*m = queryMetrics{
			reg:            reg,
			queries:        reg.Counter("runtime.queries"),
			retries:        reg.Counter("runtime.retries"),
			hedges:         reg.Counter("runtime.hedges"),
			hedgeWins:      reg.Counter("runtime.hedge_wins"),
			fallbacks:      reg.Counter("runtime.fallbacks"),
			faultsSurvived: reg.Counter("runtime.faults_survived"),
			extraBilledMs:  reg.Counter("runtime.extra_billed_ms"),
			latencyMs:      reg.Histogram("runtime.query_latency_ms"),
			billedMs:       reg.Histogram("runtime.query_billed_ms"),
		}
	}
	m.queries.Add(int64(out.Size))
	r := out.Resilience
	m.retries.Add(int64(r.Retries))
	m.hedges.Add(int64(r.Hedges))
	m.hedgeWins.Add(int64(r.HedgesWon))
	m.fallbacks.Add(int64(r.Fallbacks))
	m.faultsSurvived.Add(int64(r.FaultsSurvived))
	m.extraBilledMs.Add(r.ExtraBilledMs)
	m.latencyMs.Observe(out.LatencyMs)
	m.billedMs.Observe(float64(out.BilledMs))
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

// opEvents is the observer a Real-mode forward reports into sp with: one
// kernel event per operator application. Untraced serves (nil sp) pass no
// observer at all.
func opEvents(sp *trace.Span) graph.Observer {
	if sp == nil {
		return nil
	}
	return func(op nn.Op) { sp.Event("op:" + op.Name()) }
}

// masterHandler orchestrates the fork-join rounds (Fig. 4) for the queries
// of one request.
func (d *Deployment) masterHandler(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
	req, ok := payload.Data.(*request)
	if !ok {
		return platform.Payload{}, fmt.Errorf("runtime: master got %T, want request", payload.Data)
	}
	qs := &Resilience{}
	groupMs := make([]float64, 0, len(d.groups))
	cur := req.inputs
	for gi, gr := range d.groups {
		before := ctx.Proc().Now()
		var gsp *trace.Span
		if sp := ctx.Span(); sp != nil { // an untraced pass builds no name
			gsp = sp.Child(trace.KindGroup, "group"+strconv.Itoa(gi))
			if req.size > 1 {
				gsp.SetAttr("batch", strconv.Itoa(req.size))
			}
		}
		next, err := d.runGroup(ctx, gi, gr, req, cur, qs, gsp)
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
	return platform.Payload{
		Bytes: last.ext.OutBytesTotal * int64(req.size),
		Data:  &response{outputs: cur, groupMs: groupMs, resil: *qs},
	}, nil
}

// workerReq is the body of a worker invocation carrying the round's tensors.
// In ShapeOnly mode there are none and the size never changes, so every
// worker of every round gets the request the master itself received: a
// query allocates one body, not one per invocation.
func (d *Deployment) workerReq(req *request, ins []*tensor.Tensor) *request {
	if d.mode != Real {
		return req
	}
	return &request{size: req.size, inputs: ins}
}

// runGroup executes one layer group from the master's perspective, for
// every query of req at once; ins holds the group's input per query (Real
// mode). Every partition's tensor math is one batched forward of its graph,
// bitwise identical to sequential execution, while modeled compute and
// payload bytes scale linearly with req.size.
func (d *Deployment) runGroup(ctx *platform.Ctx, gi int, gr *groupRuntime, req *request, ins []*tensor.Tensor, qs *Resilience, gsp *trace.Span) ([]*tensor.Tensor, error) {
	switch {
	case gr.gp.Option.Dim != partition.DimNone:
		return d.forkJoin(ctx, gi, gr, req, ins, qs, gsp)
	case gr.gp.OnMaster:
		return d.localRound(ctx, gr, req, ins, gsp)
	default:
		return d.remoteRound(ctx, gi, gr, req, ins, qs, gsp)
	}
}

// localRound runs a whole group on the master itself.
func (d *Deployment) localRound(ctx *platform.Ctx, gr *groupRuntime, req *request, ins []*tensor.Tensor, gsp *trace.Span) ([]*tensor.Tensor, error) {
	csp := gsp.Child(trace.KindCompute, "master-compute")
	defer csp.EndSpan()
	return d.computeChain(ctx, gr, req.size, ins, csp)
}

// remoteRound runs a whole group on its single worker (with retries, and a
// master-local fallback when graceful degradation is enabled).
func (d *Deployment) remoteRound(ctx *platform.Ctx, gi int, gr *groupRuntime, req *request, ins []*tensor.Tensor, qs *Resilience, gsp *trace.Span) ([]*tensor.Tensor, error) {
	wreq := platform.Payload{Bytes: gr.ext.InBytesTotal * int64(req.size), Data: d.workerReq(req, ins)}
	res, err := d.callWorker(ctx.Proc(), ctx, gi, 0, wreq, qs, gsp)
	if err != nil {
		if d.opts.fallback {
			return d.fallbackLocal(ctx, gi, gr, req.size, ins, qs, gsp)
		}
		return nil, err
	}
	return d.tensorsOf(res.Resp, req.size)
}

// forkJoin is the parallel round of a partitioned group: fork workers,
// optionally compute partition 0 locally, join and reassemble per query.
func (d *Deployment) forkJoin(ctx *platform.Ctx, gi int, gr *groupRuntime, req *request, ins []*tensor.Tensor, qs *Resilience, gsp *trace.Span) ([]*tensor.Tensor, error) {
	opt := gr.gp.Option
	size := int64(req.size)
	firstWorker := 0
	if gr.gp.OnMaster {
		firstWorker = 1
	}
	promises := make([]*simnet.Promise[platform.InvokeResult], 0, opt.Parts-firstWorker)
	callSpans := make([]*trace.Span, 0, opt.Parts-firstWorker)
	// When the round fails, the master stops waiting: sibling calls still in
	// flight settle after the group span ends, which trace invariants only
	// accept once marked abandoned.
	fail := func(err error) ([]*tensor.Tensor, error) {
		abandonUnsettled(promises, callSpans)
		return nil, err
	}
	for part := firstWorker; part < opt.Parts; part++ {
		slabs, err := d.partInputs(gr, part, ins)
		if err != nil {
			return fail(err)
		}
		wreq := platform.Payload{Bytes: gr.ext.PerPart[part].InBytes * size, Data: d.workerReq(req, slabs)}
		pr, csp := d.launchWorker(ctx, gi, part, wreq, qs, gsp)
		promises = append(promises, pr)
		callSpans = append(callSpans, csp)
	}

	// outs[part][e] is partition part's output for query e (Real mode).
	var outs [][]*tensor.Tensor
	if d.mode == Real {
		outs = make([][]*tensor.Tensor, opt.Parts)
	}
	if gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-part0")
		d.computeScaled(ctx, gr, flopFrac(gr, 0), req.size)
		if d.mode == Real {
			slabs, err := d.partInputs(gr, 0, ins)
			if err == nil {
				outs[0], err = gr.parts[0].ForwardBatch(slabs, opEvents(csp))
			}
			if err != nil {
				csp.EndSpan()
				return fail(err)
			}
		}
		csp.EndSpan()
	}
	for i, pr := range promises {
		res, err := pr.Wait(ctx.Proc())
		if err != nil {
			return fail(err)
		}
		if d.mode == Real {
			if outs[firstWorker+i], err = d.tensorsOf(res.Resp, req.size); err != nil {
				return fail(err)
			}
		}
	}
	// Reassembly is memory-bandwidth work on the master, once per query.
	rsp := gsp.Child(trace.KindCompute, "reassemble")
	defer rsp.EndSpan()
	ctx.ComputeOp(0, gr.ext.OutBytesTotal*size)
	if d.mode != Real {
		return nil, nil
	}
	dim := 1 // spatial: concatenate rows
	if opt.Dim == partition.DimChannel {
		dim = 0
	}
	joined := make([]*tensor.Tensor, req.size)
	parts := make([]*tensor.Tensor, opt.Parts)
	for e := range joined {
		for part := range parts {
			parts[part] = outs[part][e]
		}
		out, err := tensor.ConcatDim(dim, parts...)
		if err != nil {
			return nil, err
		}
		joined[e] = out
	}
	return joined, nil
}

// workerHandler computes one partition of one group for every query of the
// request.
func (d *Deployment) workerHandler(ctx *platform.Ctx, gi, part int, payload platform.Payload) (platform.Payload, error) {
	req, ok := payload.Data.(*request)
	if !ok {
		return platform.Payload{}, fmt.Errorf("runtime: worker got %T, want request", payload.Data)
	}
	gr := d.groups[gi]
	var outs []*tensor.Tensor
	var err error
	if gr.gp.Option.Dim == partition.DimNone {
		outs, err = d.computeChain(ctx, gr, req.size, req.inputs, ctx.Span())
	} else {
		d.computeScaled(ctx, gr, flopFrac(gr, part), req.size)
		if d.mode == Real {
			outs, err = gr.parts[part].ForwardBatch(req.inputs, opEvents(ctx.Span()))
		}
	}
	if err != nil {
		return platform.Payload{}, err
	}
	resp := platform.Payload{Bytes: gr.ext.PerPart[part].OutBytes * int64(req.size)}
	if d.mode == Real {
		resp.Data = &response{outputs: outs}
	}
	return resp, nil
}

// computeChain runs a whole (DimNone) group where it stands — on the master,
// on the group's worker, or on the master as a fallback: the modeled compute
// on the virtual clock, then in Real mode the batched forward of the group's
// joined graph with its kernel events reported into sp.
func (d *Deployment) computeChain(ctx *platform.Ctx, gr *groupRuntime, size int, ins []*tensor.Tensor, sp *trace.Span) ([]*tensor.Tensor, error) {
	d.computeScaled(ctx, gr, 1.0, size)
	if d.mode != Real {
		return nil, nil
	}
	return gr.parts[0].ForwardBatch(ins, opEvents(sp))
}

// computeScaled advances the function's clock by the group's ops scaled to
// the partition's share of the work (exact FLOPs incl. halo redundancy) and
// linearly by the number of queries; per-op dispatch overheads are charged
// once — that is the batching win the perf model predicts.
func (d *Deployment) computeScaled(ctx *platform.Ctx, gr *groupRuntime, frac float64, size int) {
	bf := float64(size)
	ctx.ComputeOp(int64(float64(gr.ext.GroupFLOPs)*frac*bf), int64(float64(gr.opBytes)*frac*bf))
}

func flopFrac(gr *groupRuntime, part int) float64 {
	if gr.ext.GroupFLOPs == 0 {
		return 0
	}
	return float64(gr.ext.PerPart[part].FLOPs) / float64(gr.ext.GroupFLOPs)
}

// partInputs slices every query's group input for a partition (nil in
// ShapeOnly mode, which carries no tensors).
func (d *Deployment) partInputs(gr *groupRuntime, part int, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if d.mode != Real || gr.gp.Option.Dim == partition.DimChannel {
		return ins, nil // channel partitions consume the full input
	}
	slabs := make([]*tensor.Tensor, len(ins))
	for e, in := range ins {
		slab, err := partition.InputSlab(in, gr.slices.Spatial[part])
		if err != nil {
			return nil, err
		}
		slabs[e] = slab
	}
	return slabs, nil
}

// tensorsOf unwraps a worker response (nil in ShapeOnly mode).
func (d *Deployment) tensorsOf(p platform.Payload, size int) ([]*tensor.Tensor, error) {
	if d.mode != Real {
		return nil, nil
	}
	r, ok := p.Data.(*response)
	if !ok {
		return nil, fmt.Errorf("runtime: response payload %T, want response", p.Data)
	}
	if len(r.outputs) != size {
		return nil, fmt.Errorf("runtime: worker returned %d outputs for %d queries", len(r.outputs), size)
	}
	return r.outputs, nil
}

// groupOpBytes is the bytes the ops of a group touch when it runs whole.
func groupOpBytes(group []*partition.Unit) (int64, error) {
	var total int64
	for _, u := range group {
		for _, node := range u.Sub.Nodes() {
			b, err := profile.OpBytes(node.Op, u.NodeInShapes(node))
			if err != nil {
				return 0, err
			}
			total += b
		}
	}
	return total, nil
}

// DeployDefault deploys the Default baseline: the whole model in a single
// function (§V-B baseline 1).
func DeployDefault(p *platform.Platform, units []*partition.Unit, mode ExecMode) (*Deployment, error) {
	return Deploy(p, units, partition.DefaultPlan("default-"+modelNameOf(units), units), mode)
}

// Plan returns the plan the deployment serves (for reporting).
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
