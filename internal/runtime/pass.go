package runtime

import (
	"fmt"

	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// A served pass's bookkeeping lives in records the Deployment recycles, so a
// warm pass allocates none of it: the master's request, reply and
// resilience tally, the request each round sends its workers, and the
// round's worker calls (the platform recycles the invocations' own records,
// platform.Call). The Deployment belongs to one Env, which runs one process
// at a time (DESIGN §3), so plain counts keep the records without locks.

// pass is one master invocation's working set. It goes back to the
// Deployment's free list when its last holder lets go. The holders are:
//   - the serve that invoked the master, until it has read the reply (the
//     master runs on the serve's process, inside that hold);
//   - every caller and hedge-watch process (resilience.go), until it ends: a
//     caller may retry after the master has returned, and a hedge loser
//     settles after it; both read the workers' request and write the tally.
//
// A master that fails a round stops waiting for that round's calls, which
// may still read the workers' request and their caller slots: it abandons
// the pass (a hold never let go), and the pass is left to the collector.
type pass struct {
	d     *Deployment
	ctx   *platform.Ctx // the master's, which the round's callers invoke from
	req   request       // the master's request
	wreqs []request     // per group, the request its workers get; nil until a round sends one
	resp  response      // the master's reply
	qs    Resilience    // the pass's resilience tally
	// calls are the current round's worker calls in start order: one slot
	// per part, never grown past the widest round, so a slot stays put
	// while its caller runs.
	calls   []caller
	started int                // callers of the round started so far (nextCaller's index)
	run     func(*simnet.Proc) // ps.nextCaller, bound once: spawning a caller allocates nothing
	holds   int
	next    *pass // the next released pass, while this one is on the free list
}

// caller is one worker call of a round: what its caller process drives
// (callWorker) and the promise of its result the master waits on.
type caller struct {
	gi, part int
	req      platform.Payload
	span     *trace.Span // the call's span, to mark abandoned (nil when untraced)
	result   simnet.Promise[platform.InvokeResult]
}

// newPass takes a pass off the free list, or makes one, held by the serve
// that invokes the master with it.
func (d *Deployment) newPass(size int, inputs []*tensor.Tensor) *pass {
	ps := d.passes
	if ps != nil {
		if ps.qs != (Resilience{}) {
			panic("runtime: a released pass was written to: a holder let go too early")
		}
		d.passes, ps.next = ps.next, nil
	} else {
		calls := 0 // the widest round's
		for _, gr := range d.groups {
			calls = max(calls, gr.gp.Option.Parts-gr.firstWorker())
		}
		ps = &pass{d: d, calls: make([]caller, 0, calls)}
		ps.run = ps.nextCaller
	}
	ps.req = request{size: size, inputs: inputs}
	ps.holds = 1
	return ps
}

// release lets go of one hold; the last puts the pass back on the free list.
func (ps *pass) release() {
	if ps.holds--; ps.holds > 0 {
		return
	}
	if ps.holds < 0 {
		panic("runtime: pass released more often than it was held")
	}
	clear(ps.wreqs)
	clear(ps.calls[:cap(ps.calls)])
	ps.ctx, ps.req, ps.resp, ps.qs = nil, request{}, response{}, Resilience{}
	ps.next, ps.d.passes = ps.d.passes, ps
}

// abandon takes the hold a failed master never lets go.
func (ps *pass) abandon() { ps.holds++ }

// workerReq is the request group gi's workers get, which every invocation
// of the round shares. A round's hedge loser may still read it while a later
// round runs, so each group has its own.
func (ps *pass) workerReq(gi int, ins []*tensor.Tensor) *request {
	if ps.wreqs == nil {
		ps.wreqs = make([]request, len(ps.d.groups))
	}
	r := &ps.wreqs[gi]
	*r = request{size: ps.req.size, inputs: ins}
	return r
}

// launch starts one worker call of the round on a caller process of its own,
// so the calls of a round, their retries and their hedges overlap in time.
// The caller may retry after the master has returned (a failed round stops
// waiting for it), so it holds the master's Ctx and the pass until it ends.
// The call's span is opened here, at fork time, before the caller is
// scheduled; an untraced call builds no name.
func (ps *pass) launch(gi, part int, req platform.Payload, gsp *trace.Span) {
	var csp *trace.Span
	if gsp != nil {
		csp = gsp.Child(trace.KindCall, fmt.Sprintf("call:g%d.p%d", gi, part))
	}
	ps.calls = append(ps.calls, caller{gi: gi, part: part, req: req, span: csp})
	ps.calls[len(ps.calls)-1].result.Reset(ps.d.p.Env())
	ps.ctx.Hold()
	ps.holds++
	ps.d.p.Env().Go("call", ps.run)
}

// nextCaller is a caller process. Callers start in the order they were
// launched, so a count names each one's slot.
func (ps *pass) nextCaller(proc *simnet.Proc) {
	c, ctx := &ps.calls[ps.started], ps.ctx
	ps.started++
	res, err := ps.d.callWorker(proc, ps, c)
	if err != nil {
		c.result.Fail(err)
	} else {
		c.result.Resolve(res)
	}
	ctx.Release()
	ps.release()
}

// endRound empties the round once every call of it has settled.
func (ps *pass) endRound() {
	ps.calls, ps.started = ps.calls[:0], 0
}

// abandonCalls ends a failed round: the master stops waiting, so calls still
// unsettled settle after their parent span ends, which trace invariants only
// accept once marked abandoned. Their callers keep their slots: the pass is
// abandoned with them.
func (ps *pass) abandonCalls() {
	for i := range ps.calls {
		if _, _, ok := ps.calls[i].result.Poll(); !ok {
			ps.calls[i].span.SetAttr("abandoned", "sibling-failure")
		}
	}
}

// newResponse is a Real-mode worker's reply, off the Deployment's free list:
// the master puts it back once it has taken the outputs (outputOf). A reply
// nobody reads (a hedge loser's, a crashed worker's) is left to the
// collector.
func (d *Deployment) newResponse(out batch) *response {
	r := d.responses
	if r != nil {
		d.responses, r.next = r.next, nil
	} else {
		r = &response{}
	}
	r.outputs, r.buf = out.ts, out.buf
	return r
}
