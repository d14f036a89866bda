package runtime

import (
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// A served pass's bookkeeping lives in records the Deployment recycles, so a
// warm pass allocates none of it: the master's request, reply and
// resilience tally, the request each round sends its workers, and the
// fork-join round's calls in flight (the platform recycles the invocations'
// own records, platform.Call). The Deployment belongs to one Env, which runs
// one process at a time (DESIGN §3), so plain counts keep the records
// without locks.

// pass is one master invocation's working set. It goes back to the
// Deployment's free list when its last holder lets go. The holders are:
//   - the serve that invoked the master, until it has read the reply (the
//     master runs on the serve's process, inside that hold);
//   - every caller and hedge-watch process (resilience.go), until it ends: a
//     caller may retry after the master has returned, and a hedge loser
//     settles after it; both read the workers' request and write the tally.
//
// A master that fails a round stops waiting for that round's calls, which
// may still read the workers' request: it abandons the pass (a hold never
// let go), and the pass is left to the collector.
type pass struct {
	d     *Deployment
	req   request    // the master's request
	wreqs []request  // per group, the request its workers get; nil until a round sends one
	resp  response   // the master's reply
	qs    Resilience // the pass's resilience tally
	calls []pending  // the current fork-join round's worker calls
	holds int
	next  *pass // the next released pass, while this one is on the free list
}

// pending is one worker call of a fork-join round: the platform's Call on
// the naive path, a caller process's promise on the resilient one. Both are
// nil once the master has waited for it.
type pending struct {
	call *platform.Call
	pr   *simnet.Promise[platform.InvokeResult]
	span *trace.Span // the call's span, to mark abandoned (nil when untraced)
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
		parts := 0 // the widest fork-join round's
		for _, gr := range d.groups {
			if gr.gp.Option.Dim != partition.DimNone {
				parts = max(parts, gr.gp.Option.Parts)
			}
		}
		ps = &pass{d: d, calls: make([]pending, 0, parts)}
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
	clear(ps.calls)
	ps.calls = ps.calls[:0]
	ps.req, ps.resp, ps.qs = request{}, response{}, Resilience{}
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

// wait parks proc until the call settles, then lets go of it.
func (w *pending) wait(proc *simnet.Proc) (platform.InvokeResult, error) {
	if w.call == nil {
		res, err := w.pr.Wait(proc)
		w.pr = nil
		return res, err
	}
	res, err := w.call.Wait(proc)
	w.call.Release()
	w.call = nil
	return res, err
}

// abandonCalls ends a failed round: the master stops waiting, so calls still
// unsettled settle after their parent span ends, which trace invariants only
// accept once marked abandoned. The master lets go of every call it has not
// waited for.
func (ps *pass) abandonCalls() {
	for i := range ps.calls {
		w := &ps.calls[i]
		switch {
		case w.call != nil:
			if !w.call.Settled() {
				w.span.SetAttr("abandoned", "sibling-failure")
			}
			w.call.Release()
		case w.pr != nil:
			if _, _, ok := w.pr.Poll(); !ok {
				w.span.SetAttr("abandoned", "sibling-failure")
			}
		}
		*w = pending{}
	}
	ps.calls = ps.calls[:0]
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
