// Package runtime is Gillis's serving runtime: it deploys a partitioned
// model onto a (simulated) serverless platform and executes inference
// queries with the fork-join model of §III-B — a master function invokes
// worker functions holding model partitions, computes its own partitions
// when the plan places them there, reassembles partial tensors, and
// produces the final result over multiple fork-join rounds.
//
// The two baselines of §V are plans served the same way: Default is the
// whole model as one group on the master (DeployDefault), and Pipeline is the
// master alone running whole groups whose weights it fetches from object
// storage before each computes (DeployPipeline).
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
	ext     partition.Extent // per-partition FLOPs and payloads
	parts   []*graph.Graph   // the graph each partition runs (Real mode)
	outs    [][]int          // the shape of each partition's output (Real mode)
	joined  []int            // the shape of the group's output (Real mode)
	last    bool             // the plan's last group: its output is the reply
	hedged  int              // hedged invocations in flight, counted by their watchers
	lat     latencyHistory   // successful worker-call latencies (the hedging trigger)
	opBytes int64            // monolithic bytes touched
	workers []string         // function name per partition (also those the master computes)
	weights string           // the object-storage key of a whole group's weights; "" when none is kept
}

// Deployment is a model served under a plan on a platform.
type Deployment struct {
	p      *platform.Platform
	units  []*partition.Unit
	mode   ExecMode
	prefix string
	groups []*groupRuntime
	remote []string // worker functions the master invokes, in (group, part) order
	opts   deployOpts
	sorted []float64 // scratch: a group's latencies, sorted for the hedging trigger

	// hedgeOff suppresses hedged backup requests at serve time without
	// redeploying — the gateway's brownout mode sheds hedge cost this way.
	hedgeOff bool

	master  *platform.Function // polled by WarmSets on every control tick
	metrics queryMetrics

	passes    *pass     // released passes, ready for reuse (pass.go)
	responses *response // released Real-mode worker replies

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
		mode:   mode,
		prefix: fmt.Sprintf("%s-d%d", plan.Model, p.NextDeploySeq()),
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
		group := units[gp.First : gp.Last+1]
		gr := &groupRuntime{gp: gp, ext: ext, last: gi == len(plan.Groups)-1, opBytes: groupOpBytes(group)}
		// Object storage keeps a whole group's weights that the master
		// streams, or falls back to when the group's worker fails.
		if gp.Option.Parts == 1 && (gp.OnMaster && d.opts.stream || !gp.OnMaster && d.opts.fallback) {
			gr.weights = fmt.Sprintf("%s-weights-g%d", d.prefix, gi)
			p.Seed(gr.weights, ext.WeightBytes)
		}
		if gp.OnMaster && gr.weights == "" {
			masterBytes += ext.WeightBytes
		}
		if mode == Real {
			if gr.parts, err = slices.Graphs(group, gp.Option); err != nil {
				return nil, err
			}
			for _, g := range gr.parts {
				out, err := g.OutShape()
				if err != nil {
					return nil, err
				}
				gr.outs = append(gr.outs, out)
			}
			gr.joined = units[gp.Last].OutShape
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
	for gi, gr := range d.groups {
		for part := gr.firstWorker(); part < len(gr.workers); part++ {
			name := gr.workers[part]
			err := p.Register(name, func(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
				return d.workerHandler(ctx, gi, part, payload)
			})
			if err != nil {
				return nil, err
			}
			d.remote = append(d.remote, name)
		}
	}
	return d, nil
}

// firstWorker is the first partition of the group a worker computes: the
// master computes partition 0 when the plan places the group there.
func (gr *groupRuntime) firstWorker() int {
	if gr.gp.OnMaster {
		return 1
	}
	return 0
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
	for _, name := range d.remote {
		if err := d.p.Prewarm(name, 1); err != nil {
			return err
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

// request is what a master (inside its pass) or a worker is asked to serve.
// inputs is nil in ShapeOnly mode; size is always set, so handlers scale
// their modeled compute and payloads even without tensors.
type request struct {
	size   int
	inputs []*tensor.Tensor
}

// response is the body of every Real-mode worker reply (outputs only) and of
// every master reply. buf is the scratch-pool buffer a worker's outputs live
// in (nil where they are tensors of their own), which passes to the master
// with them.
type response struct {
	outputs []*tensor.Tensor
	buf     *[]float32
	resil   Resilience
	next    *response // the next released reply, while this one is on the free list
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

	bytes := tensor.SizeBytes(d.units[0].InShape) * int64(size)
	if d.mode == Real {
		if len(inputs) == 0 {
			return fail(fmt.Errorf("runtime: Real mode requires input tensors"))
		}
		if size != len(inputs) {
			return fail(fmt.Errorf("runtime: batch size %d != %d inputs", size, len(inputs)))
		}
		bytes = 0
		for _, in := range inputs {
			bytes += in.Bytes()
		}
	} else {
		if size <= 0 {
			return fail(fmt.Errorf("runtime: batch size %d", size))
		}
		inputs = nil
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
		ps := d.newPass(size, inputs)
		res, err := d.p.InvokeFromSpan(proc, d.Master, platform.Payload{Bytes: bytes, Data: ps}, root)
		if err != nil {
			ps.release()
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
			BilledMs:   res.TotalBilledMs,
			ColdStart:  res.ColdStart,
			Resilience: mr.resil,
		}
		ps.release() // mr is the pass's: read, and no longer
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
	ps, ok := payload.Data.(*pass)
	if !ok {
		return platform.Payload{}, fmt.Errorf("runtime: master got %T, want pass", payload.Data)
	}
	ps.ctx = ctx
	req := &ps.req
	cur := batch{ts: req.inputs} // the caller's: never recycled
	for gi, gr := range d.groups {
		var gsp *trace.Span
		if sp := ctx.Span(); sp != nil { // an untraced pass builds no name
			gsp = sp.Child(trace.KindGroup, "group"+strconv.Itoa(gi))
			if req.size > 1 {
				gsp.SetAttr("batch", strconv.Itoa(req.size))
			}
		}
		next, err := d.round(ctx, ps, gi, gr, &cur, gsp)
		if err != nil {
			ps.abandon()
			gsp.Fail("", err.Error())
			gsp.EndSpan()
			return platform.Payload{}, err
		}
		gsp.EndSpan()
		cur.release() // the group has consumed it
		cur = next
	}
	last := d.groups[len(d.groups)-1]
	ps.resp = response{outputs: cur.ts, resil: ps.qs}
	return platform.Payload{Bytes: last.ext.OutBytesTotal * int64(req.size), Data: &ps.resp}, nil
}

// round runs group gi as one fork-join round (Fig. 4) for every query of the
// pass: it forks the calls of the parts workers hold, computes partition 0
// when the plan places it on the master, and joins. in holds the group's
// input per query (Real mode), and a round that hands it to workers records
// the group as in.lent; every partition reads the whole input (its graph cuts
// its own rows), so the round's calls share one request. A whole group is a
// round of one partition, whose output passes through unjoined: on the
// master, after fetching its weights when they are streamed; on a worker,
// falling back to the master when object storage keeps its weights.
func (d *Deployment) round(ctx *platform.Ctx, ps *pass, gi int, gr *groupRuntime, in *batch, gsp *trace.Span) (batch, error) {
	size, parts, first := ps.req.size, gr.gp.Option.Parts, gr.firstWorker()
	if first < parts {
		in.lent = gr
		wr := ps.workerReq(gi, in.ts)
		for part := first; part < parts; part++ {
			ps.launch(gi, part, platform.Payload{Bytes: gr.ext.PerPart[part].InBytes * int64(size), Data: wr}, gsp)
		}
	}
	// outs[part].ts[e] is partition part's output for query e (Real mode). A
	// round of one partition keeps its output in an array on the stack: a
	// slice would cost every whole group an allocation.
	var one [1]batch
	outs := one[:]
	if d.mode == Real && parts > 1 {
		outs = make([]batch, parts)
	}
	// When the round fails, the master stops waiting for the calls still in
	// flight (abandonCalls), and what the round holds is left to the
	// collector.
	fail := func(err error) (batch, error) {
		ps.abandonCalls()
		return batch{}, err
	}
	if first > 0 {
		if gr.weights != "" {
			if err := fetchWeights(ctx, gr, gsp); err != nil {
				return batch{}, err
			}
		}
		name := "master-part0"
		if parts == 1 {
			name = "master-compute"
		}
		csp := gsp.Child(trace.KindCompute, name)
		out, err := d.compute(ctx, gr, 0, size, in.ts, csp)
		csp.EndSpan()
		if err != nil {
			return fail(err)
		}
		outs[0] = out
	}
	for i := range ps.calls {
		res, err := ps.calls[i].result.Wait(ctx.Proc())
		if err != nil && gr.weights != "" { // the worker's group falls back to the master
			ps.endRound()
			return d.fallbackLocal(ctx, gr, size, in.ts, &ps.qs, gsp)
		}
		if err == nil && d.mode == Real {
			outs[first+i], err = d.outputOf(res.Resp, size)
		}
		if err != nil {
			return fail(err)
		}
	}
	ps.endRound()
	if parts == 1 {
		return outs[0], nil
	}
	// Reassembly is memory-bandwidth work on the master, once per query.
	rsp := gsp.Child(trace.KindCompute, "reassemble")
	defer rsp.EndSpan()
	ctx.ComputeOp(0, gr.ext.OutBytesTotal*int64(size))
	if d.mode != Real {
		return batch{}, nil
	}
	dim := 1 // spatial: concatenate rows
	if gr.gp.Option.Dim == partition.DimChannel {
		dim = 0
	}
	joined := newBatch(gr.joined, size, !gr.last)
	ts := make([]*tensor.Tensor, parts)
	for e, dst := range joined.ts {
		for part := range ts {
			ts[part] = outs[part].ts[e]
		}
		if err := tensor.ConcatDim(dst, dim, ts...); err != nil {
			return batch{}, err
		}
	}
	// Every partition's output came from an invocation that has settled (or
	// from the master itself), and the join has copied it.
	for _, out := range outs {
		out.release()
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
	if req.size < 1 { // a released pass's request: its holders let go too early
		return platform.Payload{}, fmt.Errorf("runtime: worker got a request for %d queries", req.size)
	}
	gr := d.groups[gi]
	out, err := d.compute(ctx, gr, part, req.size, req.inputs, ctx.Span())
	if err != nil {
		return platform.Payload{}, err
	}
	resp := platform.Payload{Bytes: gr.ext.PerPart[part].OutBytes * int64(req.size)}
	if d.mode == Real {
		resp.Data = d.newResponse(out)
	}
	return resp, nil
}

// compute runs partition part of group gr where it stands — on the master,
// on a worker, or on the master as a fallback: the modeled compute on the
// virtual clock, then in Real mode the batched forward of the partition's
// graph with its kernel events reported into sp. The clock is charged the
// partition's share of the group's ops, linearly in the number of queries;
// per-op dispatch overheads are charged once — that is the batching win the
// perf model predicts. A whole group's share is all of it, whatever its
// FLOPs; a partition's is its FLOPs (halo redundancy included) over the
// group's.
func (d *Deployment) compute(ctx *platform.Ctx, gr *groupRuntime, part, size int, ins []*tensor.Tensor, sp *trace.Span) (batch, error) {
	share := 1.0
	if gr.gp.Option.Parts > 1 {
		share = 0
		if gr.ext.GroupFLOPs > 0 {
			share = float64(gr.ext.PerPart[part].FLOPs) / float64(gr.ext.GroupFLOPs)
		}
	}
	bf := float64(size)
	ctx.ComputeOp(int64(float64(gr.ext.GroupFLOPs)*share*bf), int64(float64(gr.opBytes)*share*bf))
	if d.mode != Real {
		return batch{}, nil
	}
	return gr.forward(part, ins, opEvents(sp))
}

// outputOf unwraps a Real-mode worker response and puts it back on the free
// list.
func (d *Deployment) outputOf(p platform.Payload, size int) (batch, error) {
	r, ok := p.Data.(*response)
	if !ok {
		return batch{}, fmt.Errorf("runtime: response payload %T, want response", p.Data)
	}
	if len(r.outputs) != size {
		return batch{}, fmt.Errorf("runtime: worker returned %d outputs for %d queries", len(r.outputs), size)
	}
	out := batch{ts: r.outputs, buf: r.buf}
	*r = response{next: d.responses}
	d.responses = r
	return out, nil
}

// groupOpBytes is the bytes the ops of a group touch when it runs whole.
func groupOpBytes(group []*partition.Unit) int64 {
	var total int64
	for _, u := range group {
		shapes := u.NodeShapes()
		for _, node := range u.Sub.Nodes() {
			total += profile.ShapedOpBytes(node.Op, u.NodeInShapes(node), shapes[node.ID])
		}
	}
	return total
}

// DeployDefault deploys the Default baseline: the whole model in a single
// function (§V-B baseline 1).
func DeployDefault(p *platform.Platform, units []*partition.Unit, mode ExecMode) (*Deployment, error) {
	return Deploy(p, units, partition.DefaultPlan("default-"+partition.ModelName(units), units), mode)
}

// DeployPipeline deploys the Pipeline baseline (§V-B baseline 2): the master
// alone runs PipelinePlan's groups, fetching each one's weights from object
// storage before computing it, so only the running group's are resident.
func DeployPipeline(p *platform.Platform, units []*partition.Unit, mode ExecMode) (*Deployment, error) {
	plan, err := partition.PipelinePlan(units, int64(p.Config().WeightBudgetMB)*1e6)
	if err != nil {
		return nil, err
	}
	return Deploy(p, units, plan, mode, func(o *deployOpts) { o.stream = true })
}
