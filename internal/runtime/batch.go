// Cross-query batched serving: one fork-join pass carries a batch of
// queries through the plan's rounds. Per-round invocation overheads
// (request overhead, cold starts, per-op dispatch) are paid once per batch
// instead of once per query — the throughput lever the batch-aware planner
// optimizes — while all tensor math runs the batched kernels of
// internal/nn, which are bitwise identical to the per-query loop.
package runtime

import (
	"fmt"

	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// batchReq is the in-process payload body of a batched invocation. inputs
// is nil in ShapeOnly mode; size is always set so handlers scale their
// modeled compute even without tensors.
type batchReq struct {
	size   int
	inputs []*tensor.Tensor
}

// batchResp is a worker's batched response body (Real mode).
type batchResp struct {
	outs []*tensor.Tensor
}

// batchMasterResp is the master's batched response body.
type batchMasterResp struct {
	outputs []*tensor.Tensor
	groupMs []float64
	resil   Resilience
}

// BatchResult reports one served batch.
type BatchResult struct {
	// Outputs holds one inference result per query, in input order (nil in
	// ShapeOnly mode).
	Outputs []*tensor.Tensor
	// Size is the number of queries in the batch.
	Size int
	// LatencyMs is the batch latency: the master function's duration. Every
	// query in the batch observes it.
	LatencyMs float64
	// GroupMs traces each fork-join round's master-observed duration.
	GroupMs []float64
	// BilledMs is the total billed duration (master + workers) for the
	// whole batch; callers apportion it across queries.
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Resilience aggregates the batch's resilience telemetry.
	Resilience Resilience
}

// ServeBatch executes one batch of queries as a single fork-join pass. In
// Real mode inputs carries one tensor per query and size must equal
// len(inputs); in ShapeOnly mode inputs is nil and size alone scales the
// modeled compute and payloads. Real-mode outputs are bitwise identical to
// serving the inputs sequentially.
func (d *Deployment) ServeBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int) (BatchResult, error) {
	return d.serveBatch(proc, inputs, size, nil)
}

// ServeBatchTraced is ServeBatch with query-level tracing (see ServeTraced).
func (d *Deployment) ServeBatchTraced(proc *simnet.Proc, inputs []*tensor.Tensor, size int) (BatchResult, *trace.Trace, error) {
	tr := trace.New("batch", d.p.Env().Stamp)
	root := tr.Root()
	res, err := d.serveBatch(proc, inputs, size, root)
	if err != nil {
		root.Fail("", err.Error())
	} else if d.mode == Real {
		for e, out := range res.Outputs {
			root.SetAttr(fmt.Sprintf("output-digest-%d", e), fmt.Sprintf("%016x", tensorDigest(out)))
		}
	}
	root.EndSpan()
	return res, tr, err
}

func (d *Deployment) serveBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int, root *trace.Span) (BatchResult, error) {
	if d.mode == Real {
		if len(inputs) == 0 {
			return BatchResult{}, fmt.Errorf("runtime: Real mode requires input tensors")
		}
		if size != len(inputs) {
			return BatchResult{}, fmt.Errorf("runtime: batch size %d != %d inputs", size, len(inputs))
		}
	} else if size <= 0 {
		return BatchResult{}, fmt.Errorf("runtime: batch size %d", size)
	}
	payload := platform.Payload{
		Bytes: tensor.SizeBytes(d.units[0].InShape) * int64(size),
		Data:  &batchReq{size: size},
	}
	if d.mode == Real {
		payload.Bytes = 0
		for _, in := range inputs {
			payload.Bytes += in.Bytes()
		}
		payload.Data = &batchReq{size: size, inputs: inputs}
	}
	var lastErr error
	var extra int64
	clientRetries := 0
	for attempt := 0; attempt <= d.opts.retries; attempt++ {
		if attempt > 0 {
			clientRetries++
			root.Event("client-retry", "attempt", fmt.Sprint(attempt))
			proc.Sleep(msToDur(d.opts.backoff(attempt)))
		}
		res, err := d.p.InvokeFromSpan(proc, d.Master, payload, root)
		if err != nil {
			extra += platform.BilledMsOf(err)
			lastErr = err
			continue
		}
		mr, ok := res.Resp.Data.(*batchMasterResp)
		if !ok {
			return BatchResult{}, fmt.Errorf("runtime: master returned %T", res.Resp.Data)
		}
		out := BatchResult{
			Size:      size,
			LatencyMs: res.HandlerMs,
			BilledMs:  res.TotalBilledMs,
			ColdStart: res.ColdStart,
			GroupMs:   mr.groupMs,
		}
		out.Resilience = mr.resil
		out.Resilience.Retries += clientRetries
		out.Resilience.FaultsSurvived += clientRetries
		out.Resilience.ExtraBilledMs += extra
		if d.mode == Real {
			if len(mr.outputs) != size {
				return BatchResult{}, fmt.Errorf("runtime: master returned %d outputs for batch of %d", len(mr.outputs), size)
			}
			out.Outputs = mr.outputs
		}
		d.recordBatchMetrics(out)
		return out, nil
	}
	return BatchResult{}, lastErr
}

// recordBatchMetrics aggregates one served batch: size queries, one
// batched pass.
func (d *Deployment) recordBatchMetrics(out BatchResult) {
	reg := d.p.Metrics()
	reg.Counter("runtime.queries").Add(int64(out.Size))
	reg.Counter("runtime.batches").Inc()
	r := out.Resilience
	reg.Counter("runtime.retries").Add(int64(r.Retries))
	reg.Counter("runtime.hedges").Add(int64(r.Hedges))
	reg.Counter("runtime.hedge_wins").Add(int64(r.HedgesWon))
	reg.Counter("runtime.fallbacks").Add(int64(r.Fallbacks))
	reg.Counter("runtime.faults_survived").Add(int64(r.FaultsSurvived))
	reg.Counter("runtime.extra_billed_ms").Add(r.ExtraBilledMs)
	reg.Histogram("runtime.batch_latency_ms").Observe(out.LatencyMs)
	reg.Histogram("runtime.batch_billed_ms").Observe(float64(out.BilledMs))
}

// masterHandlerBatch orchestrates the fork-join rounds for one batch.
func (d *Deployment) masterHandlerBatch(ctx *platform.Ctx, br *batchReq) (platform.Payload, error) {
	var cur []*tensor.Tensor
	if d.mode == Real {
		cur = br.inputs
	}
	qs := &queryStats{}
	groupMs := make([]float64, 0, len(d.groups))
	for gi, gr := range d.groups {
		before := ctx.Proc().Now()
		gsp := ctx.Span().Childf(trace.KindGroup, "group%d", gi)
		gsp.SetAttr("batch", fmt.Sprint(br.size))
		next, err := d.runGroupBatch(ctx, gi, gr, cur, br.size, qs, gsp)
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
		Bytes: last.outBytes * int64(br.size),
		Data:  &batchMasterResp{outputs: cur, groupMs: groupMs, resil: qs.snapshot()},
	}, nil
}

// runGroupBatch executes one layer group for a whole batch from the
// master's perspective. Per-query tensor math is either batched through the
// batch-aware kernels (DimNone paths, channel partitions) or looped per
// element (spatial partitions) — both bitwise identical to sequential
// execution — while modeled compute and payload bytes scale linearly with
// the batch size.
func (d *Deployment) runGroupBatch(ctx *platform.Ctx, gi int, gr *groupRuntime, ins []*tensor.Tensor, size int, qs *queryStats, gsp *trace.Span) ([]*tensor.Tensor, error) {
	opt := gr.gp.Option

	// Whole group on the master: local batched execution.
	if opt.Dim == partition.DimNone && gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-compute")
		d.computeScaledBatch(ctx, gr, 1.0, size)
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			outs, err := partition.ForwardChainBatch(gr.units, ins)
			restoreObs()
			restore()
			csp.EndSpan()
			return outs, err
		}
		csp.EndSpan()
		return nil, nil
	}

	// Whole group on a single worker: one remote round for the batch.
	if opt.Dim == partition.DimNone {
		req := platform.Payload{Bytes: gr.inBytes * int64(size), Data: &batchReq{size: size}}
		if d.mode == Real {
			req.Data = &batchReq{size: size, inputs: ins}
		}
		res, err := d.callWorker(ctx.Proc(), ctx, gi, 0, req, qs, gsp)
		if err != nil {
			if d.opts.fallback {
				return d.fallbackLocalBatch(ctx, gi, gr, ins, size, qs, gsp)
			}
			return nil, err
		}
		return d.tensorsOf(res.Resp, size)
	}

	// Parallel round: fork workers with batched part payloads, optionally
	// compute partition 0 locally, join and reassemble per query.
	firstWorker := 0
	if gr.gp.OnMaster {
		firstWorker = 1
	}
	promises := make([]*simnet.Promise[platform.InvokeResult], 0, opt.Parts-firstWorker)
	callSpans := make([]*trace.Span, 0, opt.Parts-firstWorker)
	for part := firstWorker; part < opt.Parts; part++ {
		req := platform.Payload{Bytes: gr.partIn[part] * int64(size), Data: &batchReq{size: size}}
		if d.mode == Real {
			slabs := make([]*tensor.Tensor, size)
			for e, in := range ins {
				slab, err := d.partInput(gr, part, in)
				if err != nil {
					abandonUnsettled(promises, callSpans)
					return nil, err
				}
				slabs[e] = slab
			}
			req.Data = &batchReq{size: size, inputs: slabs}
		}
		pr, csp := d.launchWorker(ctx, gi, part, req, qs, gsp)
		promises = append(promises, pr)
		callSpans = append(callSpans, csp)
	}
	fail := func(err error) ([]*tensor.Tensor, error) {
		abandonUnsettled(promises, callSpans)
		return nil, err
	}

	// outs[part][e] is partition part's output for query e.
	outs := make([][]*tensor.Tensor, opt.Parts)
	if gr.gp.OnMaster {
		csp := gsp.Child(trace.KindCompute, "master-part0")
		d.computeScaledBatch(ctx, gr, flopFrac(gr, 0), size)
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(csp)
			part0, err := d.execPartBatch(gr, 0, ins)
			restoreObs()
			restore()
			if err != nil {
				csp.EndSpan()
				return fail(err)
			}
			outs[0] = part0
		}
		csp.EndSpan()
	}
	for i, pr := range promises {
		res, err := pr.Wait(ctx.Proc())
		if err != nil {
			return fail(err)
		}
		if d.mode == Real {
			ts, err := d.tensorsOf(res.Resp, size)
			if err != nil {
				return fail(err)
			}
			outs[firstWorker+i] = ts
		}
	}
	// Reassembly is memory-bandwidth work on the master, once per query.
	rsp := gsp.Child(trace.KindCompute, "reassemble")
	ctx.ComputeOp(0, gr.outBytes*int64(size))
	if d.mode != Real {
		rsp.EndSpan()
		return nil, nil
	}
	dim := 1 // spatial: concatenate rows
	if opt.Dim == partition.DimChannel {
		dim = 0
	}
	joined := make([]*tensor.Tensor, size)
	for e := 0; e < size; e++ {
		parts := make([]*tensor.Tensor, opt.Parts)
		for part := range parts {
			parts[part] = outs[part][e]
		}
		out, err := tensor.ConcatDim(dim, parts...)
		if err != nil {
			rsp.EndSpan()
			return nil, err
		}
		joined[e] = out
	}
	rsp.EndSpan()
	return joined, nil
}

// workerHandlerBatch computes one partition of one group for a whole batch.
func (d *Deployment) workerHandlerBatch(ctx *platform.Ctx, gi, part int, br *batchReq) (platform.Payload, error) {
	gr := d.groups[gi]
	if gr.gp.Option.Dim == partition.DimNone {
		d.computeScaledBatch(ctx, gr, 1.0, br.size)
		resp := platform.Payload{Bytes: gr.outBytes * int64(br.size)}
		if d.mode == Real {
			restore := d.opts.kernelScope()
			restoreObs := observeOps(ctx.Span())
			outs, err := partition.ForwardChainBatch(gr.units, br.inputs)
			restoreObs()
			restore()
			if err != nil {
				return platform.Payload{}, err
			}
			resp.Data = &batchResp{outs: outs}
		}
		return resp, nil
	}

	d.computeScaledBatch(ctx, gr, flopFrac(gr, part), br.size)
	resp := platform.Payload{Bytes: gr.partOut[part] * int64(br.size)}
	if d.mode == Real {
		restore := d.opts.kernelScope()
		restoreObs := observeOps(ctx.Span())
		outs, err := d.execPartFromSlabBatch(gr, part, br.inputs)
		restoreObs()
		restore()
		if err != nil {
			return platform.Payload{}, err
		}
		resp.Data = &batchResp{outs: outs}
	}
	return resp, nil
}

// computeScaledBatch is computeScaled with the partition's FLOPs and bytes
// scaled linearly by the batch size (per-op dispatch overheads are charged
// once — that is the batching win the perf model predicts).
func (d *Deployment) computeScaledBatch(ctx *platform.Ctx, gr *groupRuntime, frac float64, size int) {
	bf := float64(size)
	ctx.ComputeOp(int64(float64(gr.flops)*frac*bf/d.opts.speedup()), int64(float64(gr.opBytes)*frac*bf))
}

// execPartBatch runs one partition over every query's full group input
// (master side).
func (d *Deployment) execPartBatch(gr *groupRuntime, part int, ins []*tensor.Tensor) ([]*tensor.Tensor, error) {
	slabs := make([]*tensor.Tensor, len(ins))
	for e, in := range ins {
		slab, err := d.partInput(gr, part, in)
		if err != nil {
			return nil, err
		}
		slabs[e] = slab
	}
	return d.execPartFromSlabBatch(gr, part, slabs)
}

// execPartFromSlabBatch runs one partition over the batch's input slabs.
// Channel partitions run the batched graph walk on the subgraph the
// deployment built; spatial partitions loop ExecSpatialPart per query
// (identical math either way).
func (d *Deployment) execPartFromSlabBatch(gr *groupRuntime, part int, slabs []*tensor.Tensor) ([]*tensor.Tensor, error) {
	if gr.gp.Option.Dim == partition.DimChannel {
		return gr.channel[part].Sub.ForwardBatch(slabs)
	}
	outs := make([]*tensor.Tensor, len(slabs))
	for e, slab := range slabs {
		out, err := partition.ExecSpatialPart(gr.units, gr.spatial[part], slab)
		if err != nil {
			return nil, err
		}
		outs[e] = out
	}
	return outs, nil
}

// fallbackLocalBatch is fallbackLocal for a batched DimNone round: one
// storage fetch of the group's weights, then local batched execution.
func (d *Deployment) fallbackLocalBatch(ctx *platform.Ctx, gi int, gr *groupRuntime, ins []*tensor.Tensor, size int, qs *queryStats, gsp *trace.Span) ([]*tensor.Tensor, error) {
	fsp := gsp.Child(trace.KindFallback, "fallback")
	if _, err := ctx.StorageGet(d.fallbackKey(gi)); err != nil {
		fsp.Fail("", err.Error())
		fsp.EndSpan()
		return nil, err
	}
	qs.fellBack()
	qs.survive()
	d.computeScaledBatch(ctx, gr, 1.0, size)
	if d.mode == Real {
		restore := d.opts.kernelScope()
		restoreObs := observeOps(fsp)
		outs, err := partition.ForwardChainBatch(gr.units, ins)
		restoreObs()
		restore()
		fsp.EndSpan()
		return outs, err
	}
	fsp.EndSpan()
	return nil, nil
}

// tensorsOf unwraps a batched worker response.
func (d *Deployment) tensorsOf(p platform.Payload, size int) ([]*tensor.Tensor, error) {
	if d.mode != Real {
		return nil, nil
	}
	br, ok := p.Data.(*batchResp)
	if !ok {
		return nil, fmt.Errorf("runtime: batched response payload %T, want batch", p.Data)
	}
	if len(br.outs) != size {
		return nil, fmt.Errorf("runtime: worker returned %d outputs for batch of %d", len(br.outs), size)
	}
	return br.outs, nil
}
