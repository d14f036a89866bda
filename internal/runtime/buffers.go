package runtime

import (
	"gillis/internal/graph"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// A Real-mode pass moves tensor-sized data from group to group: a
// partition's output, the join of a fork-join round, a whole group's output.
// Each lives in one buffer from par's scratch pool for all the pass's
// queries, so a warm pass allocates tensor headers, not tensors. The master
// owns a group's output from the moment it has it: a worker's output passes
// to it with the response, once the worker's invocation has settled. It
// gives a partition's output back as soon as the join has copied it, and a
// group's output once the next group has consumed it — unless that group
// handed it to an invocation that has not settled. The only invocations that
// outlive a round that succeeded are hedge losers (a failed round fails the
// pass, and what it holds goes to the collector); the loser may yet read the
// round's input, so while any of the group's hedged invocations is in flight
// the buffer is left to the collector instead
// (TestPooledJoinsOutliveHedgeLosers). What leaves the pass does not live in
// the pool: the last group writes the reply into tensors of its own, which
// the caller keeps.

// batch is a group's input or output, one tensor per query of the pass. buf,
// when set, is the scratch-pool buffer the tensors live in; lent is the
// group whose workers they were handed to, if any.
type batch struct {
	ts   []*tensor.Tensor
	buf  *[]float32
	lent *groupRuntime
}

// release gives b's buffer back to the scratch pool, unless a hedged
// invocation of the group it was lent to may still read it.
func (b *batch) release() {
	if b.buf == nil || b.lent != nil && b.lent.hedged > 0 {
		return
	}
	par.PutF32(b.buf)
	b.buf = nil
}

// newBatch returns size tensors of the given shape: in one buffer from the
// scratch pool, or unpooled, tensors of their own. Their contents are
// undefined until the caller writes every element.
func newBatch(shape []int, size int, pooled bool) batch {
	b := batch{ts: make([]*tensor.Tensor, size)}
	if !pooled {
		for e := range b.ts {
			b.ts[e] = tensor.New(shape...)
		}
		return b
	}
	n := int(tensor.SizeBytes(shape) / 4)
	b.buf = par.GetF32(n * size)
	for e := range b.ts {
		lo, hi := e*n, (e+1)*n
		b.ts[e], _ = tensor.FromData((*b.buf)[lo:hi:hi], shape...) // n is the shape's size
	}
	return b
}

// forward runs partition part of the group for every query of ins. Its
// output goes to the pool unless it is the reply: the output of the plan's
// last group when it has one partition. (A last round's partitions still
// pool theirs; the join writes the reply.)
func (gr *groupRuntime) forward(part int, ins []*tensor.Tensor, obs graph.Observer) (batch, error) {
	out := newBatch(gr.outs[part], len(ins), !gr.last || gr.gp.Option.Parts > 1)
	if err := gr.parts[part].ForwardBatchInto(ins, out.ts, obs); err != nil {
		out.release()
		return batch{}, err
	}
	return out, nil
}
