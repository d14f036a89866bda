package runtime

import (
	"fmt"

	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// PipelineDeployment is the §V-B Pipeline baseline: a single function
// serves a model too large for its memory by sequentially loading layer
// partitions from object storage (S3 in the paper), executing them one at
// a time and evicting them afterwards.
type PipelineDeployment struct {
	p      *platform.Platform
	units  []*partition.Unit
	mode   ExecMode
	prefix string
	chunks []pipelineChunk

	// Function is the serving function's name.
	Function string
}

// pipelineChunk is one storage-staged stage of the pipeline.
type pipelineChunk struct {
	first, last int
	weightBytes int64
	flops       int64
	opBytes     int64
	key         string
}

// DeployPipeline packs consecutive units into storage chunks that fit the
// function's weight budget, seeds object storage, and registers the serving
// function.
func DeployPipeline(p *platform.Platform, units []*partition.Unit, mode ExecMode) (*PipelineDeployment, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("runtime: no units")
	}
	budget := int64(p.Config().WeightBudgetMB) * 1e6
	d := &PipelineDeployment{
		p:      p,
		units:  units,
		mode:   mode,
		prefix: fmt.Sprintf("%s-pipe%d", partition.ModelName(units), p.NextDeploySeq()),
	}
	d.Function = d.prefix + "-fn"

	// Greedy packing: extend the chunk while weights + peak activations
	// stay within budget.
	first := 0
	var weight int64
	for i, u := range units {
		act := tensor.SizeBytes(u.InShape) + tensor.SizeBytes(u.OutShape)
		if u.ParamBytes+act > budget {
			return nil, fmt.Errorf("runtime: unit %d (%s) alone exceeds the function budget; pipeline infeasible", i, u.Name)
		}
		if weight+u.ParamBytes+act > budget && i > first {
			if err := d.appendChunk(units, first, i-1); err != nil {
				return nil, err
			}
			first, weight = i, 0
		}
		weight += u.ParamBytes
	}
	if err := d.appendChunk(units, first, len(units)-1); err != nil {
		return nil, err
	}

	for _, c := range d.chunks {
		p.Seed(c.key, c.weightBytes)
	}
	if err := p.Register(d.Function, d.handler); err != nil {
		return nil, err
	}
	return d, nil
}

func (d *PipelineDeployment) appendChunk(units []*partition.Unit, first, last int) error {
	c := pipelineChunk{first: first, last: last}
	for _, u := range units[first : last+1] {
		c.weightBytes += u.ParamBytes
		c.flops += u.FLOPs
	}
	c.opBytes = groupOpBytes(units[first : last+1])
	c.key = fmt.Sprintf("%s/chunk%d", d.prefix, len(d.chunks))
	d.chunks = append(d.chunks, c)
	return nil
}

// Chunks returns the number of storage-staged stages.
func (d *PipelineDeployment) Chunks() int { return len(d.chunks) }

// Prewarm warms the serving function.
func (d *PipelineDeployment) Prewarm() error { return d.p.Prewarm(d.Function, 1) }

// PipelineResult reports one pipelined query with the paper's Fig. 11
// breakdown into computation and network (weight-loading) time.
type PipelineResult struct {
	Output    *tensor.Tensor
	LatencyMs float64
	ComputeMs float64
	LoadMs    float64
	BilledMs  int64
}

// Serve executes one query through the pipeline.
func (d *PipelineDeployment) Serve(proc *simnet.Proc, input *tensor.Tensor) (PipelineResult, error) {
	payload := platform.Payload{Bytes: tensor.SizeBytes(d.units[0].InShape)}
	if d.mode == Real {
		if input == nil {
			return PipelineResult{}, fmt.Errorf("runtime: Real mode requires an input tensor")
		}
		payload.Data = input
		payload.Bytes = input.Bytes()
	}
	res, err := d.p.InvokeFrom(proc, d.Function, payload)
	if err != nil {
		return PipelineResult{}, err
	}
	br, ok := res.Resp.Data.(*pipelineBreakdown)
	if !ok {
		return PipelineResult{}, fmt.Errorf("runtime: pipeline returned %T", res.Resp.Data)
	}
	return PipelineResult{
		Output:    br.output,
		LatencyMs: res.HandlerMs,
		ComputeMs: br.computeMs,
		LoadMs:    br.loadMs,
		BilledMs:  res.TotalBilledMs,
	}, nil
}

type pipelineBreakdown struct {
	output    *tensor.Tensor
	computeMs float64
	loadMs    float64
}

func (d *PipelineDeployment) handler(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
	var cur *tensor.Tensor
	if d.mode == Real {
		var ok bool
		cur, ok = payload.Data.(*tensor.Tensor)
		if !ok {
			return platform.Payload{}, fmt.Errorf("runtime: pipeline got %T", payload.Data)
		}
	}
	br := &pipelineBreakdown{}
	for _, c := range d.chunks {
		before := ctx.Proc().Now()
		if err := ctx.StorageGet(c.key); err != nil {
			return platform.Payload{}, err
		}
		br.loadMs += float64(ctx.Proc().Now()-before) / 1e6

		before = ctx.Proc().Now()
		ctx.ComputeOp(c.flops, c.opBytes)
		br.computeMs += float64(ctx.Proc().Now()-before) / 1e6
		if d.mode == Real {
			out, err := partition.ForwardChain(d.units[c.first:c.last+1], cur)
			if err != nil {
				return platform.Payload{}, err
			}
			cur = out
		}
	}
	br.output = cur
	last := d.units[len(d.units)-1]
	return platform.Payload{Bytes: tensor.SizeBytes(last.OutShape), Data: br}, nil
}
