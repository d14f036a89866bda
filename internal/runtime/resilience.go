package runtime

import (
	"errors"
	"slices"
	"strconv"
	"time"

	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/stats"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// This file is the runtime's resilience layer: bounded retries with
// exponential backoff, hedged (tail-tolerant) backup requests, and a
// master-local fallback for DimNone groups. Every worker call goes through
// it (callWorker, on a caller process of its own: pass.launch); a naive
// deployment (no resilience option set) is the same code with a zero retry
// budget and no hedge, whose one attempt is a plain invocation.

// Resilience is per-query resilience telemetry.
type Resilience struct {
	// Retries counts retried invocation attempts (workers + the client's
	// master invocation).
	Retries int
	// Hedges counts backup invocations launched; HedgesWon counts races the
	// backup won.
	Hedges    int
	HedgesWon int
	// FaultsSurvived counts faults the query absorbed without failing
	// (successful retries, master invocation retries, and fallbacks).
	FaultsSurvived int
	// Fallbacks counts DimNone groups the master re-executed locally after
	// their worker failed past the retry budget.
	Fallbacks int
	// ExtraBilledMs is the billed time attributable to resilience overhead:
	// failed attempts and hedge losers. It is a lower bound — work that
	// settles after the query returns loses attribution (the platform's
	// BilledMsTotal is authoritative for aggregate cost).
	ExtraBilledMs int64
}

// minHedgeSamples is how many latency observations a group needs before
// hedging activates; below it there is no meaningful percentile.
const minHedgeSamples = 8

// maxHedgeSamples bounds each group's latency window (oldest dropped).
const maxHedgeSamples = 256

// latencyHistory is one group's window of successful worker-call latencies,
// from which the hedging option derives its trigger threshold. Only a
// hedging deployment records it.
type latencyHistory struct {
	samples []float64 // the latest maxHedgeSamples; once full, a ring whose oldest is at next
	next    int
}

func (h *latencyHistory) record(ms float64) {
	if len(h.samples) < maxHedgeSamples {
		h.samples = append(h.samples, ms)
		return
	}
	h.samples[h.next] = ms
	h.next = (h.next + 1) % maxHedgeSamples
}

// hedgeThreshold returns the hedging percentile of group gi's observed
// latencies, and whether the deployment hedges this attempt: it is
// configured to, not switched off, and has seen enough samples. The samples
// are sorted into the deployment's scratch window, which stats.Percentile
// reads in place.
func (d *Deployment) hedgeThreshold(gi int) (float64, bool) {
	s := d.groups[gi].lat.samples
	if d.opts.hedgePctl == 0 || d.hedgeOff || len(s) < minHedgeSamples {
		return 0, false
	}
	d.sorted = append(d.sorted[:0], s...)
	slices.Sort(d.sorted)
	return stats.Percentile(d.sorted, d.opts.hedgePctl), true
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// callWorker makes call c from proc, its caller process, with the
// deployment's full resilience budget: hedging, and bounded retries with
// exponential backoff. It records into the call's span, opened at launch.
func (d *Deployment) callWorker(proc *simnet.Proc, ps *pass, c *caller) (platform.InvokeResult, error) {
	qs, gi, csp := &ps.qs, c.gi, c.span
	name := d.workerName(gi, c.part)
	attempts := d.opts.retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			qs.Retries++
			csp.Event("retry", "attempt", strconv.Itoa(a))
			proc.Sleep(msToDur(d.opts.backoff(a)))
		}
		start := proc.Now()
		res, err := d.attemptWorker(proc, ps, gi, name, c.req, csp)
		if err == nil {
			if d.opts.hedgePctl > 0 {
				d.groups[gi].lat.record(float64(proc.Now()-start) / 1e6)
			}
			if a > 0 {
				qs.FaultsSurvived++
			}
			csp.EndSpan()
			return res, nil
		}
		qs.ExtraBilledMs += platform.BilledMsOf(err)
		lastErr = err
	}
	csp.Fail("", lastErr.Error())
	csp.EndSpan()
	return platform.InvokeResult{}, lastErr
}

type hedgeOut struct {
	res    platform.InvokeResult
	backup bool
}

// attemptWorker makes one invocation attempt. An attempt that does not hedge
// runs its invocation on proc; one that does races the primary against a
// backup request once it outlives the group's latency percentile.
func (d *Deployment) attemptWorker(proc *simnet.Proc, ps *pass, gi int, name string, req platform.Payload, csp *trace.Span) (platform.InvokeResult, error) {
	qs, ctx := &ps.qs, ps.ctx
	asp := csp.Child(trace.KindAttempt, "attempt")
	thresh, hedging := d.hedgeThreshold(gi)
	if !hedging {
		res, err := ctx.InvokeOn(proc, name, req, asp)
		endAttempt(asp, err)
		return res, err
	}

	// Phase 1: give the primary until the hedge point before spending money
	// on a backup.
	primary, psp := ctx.InvokeAsyncSpan(name, req, asp)
	res, err := primary.WaitTimeout(proc, msToDur(thresh))
	if err == nil || !errors.Is(err, simnet.ErrTimeout) {
		primary.Release()
		endAttempt(asp, err)
		return res, err
	}

	// Phase 2: the primary is a suspected straggler — race it against a
	// backup; first response wins, the loser's billing becomes overhead.
	qs.Hedges++
	asp.Event("hedge")
	psp.SetAttr("hedge", "primary")
	backup, bsp := ctx.InvokeAsyncSpan(name, req, asp)
	bsp.SetAttr("hedge", "backup")
	env := d.p.Env()
	win := simnet.NewPromise[hedgeOut](env)
	fails := 0
	// The race's loser is still running when the winner returns, and it
	// holds the round's request: the group's count of hedged invocations in
	// flight keeps the master from recycling the tensors in it
	// (batch.release), and the watch's hold the pass, until the loser has
	// settled. Each watch owns its Call.
	gr := d.groups[gi]
	watch := func(call *platform.Call, sp *trace.Span, isBackup bool) {
		gr.hedged++
		ps.holds++
		env.Go("hedge-watch", func(wp *simnet.Proc) {
			defer ps.release()
			res, err := call.Wait(wp)
			call.Release()
			gr.hedged--
			if err != nil {
				qs.ExtraBilledMs += platform.BilledMsOf(err)
				if fails++; fails == 2 {
					win.TryFail(err)
				}
				return
			}
			if win.TryResolve(hedgeOut{res: res, backup: isBackup}) {
				if isBackup {
					sp.SetAttr("hedge", "won-backup")
				} else {
					sp.SetAttr("hedge", "won-primary")
				}
				return
			}
			sp.SetAttr("hedge", "lost")
			qs.ExtraBilledMs += res.TotalBilledMs // lost the race
		})
	}
	watch(primary, psp, false)
	watch(backup, bsp, true)

	out, werr := win.Wait(proc)
	if werr != nil {
		endAttempt(asp, werr)
		return platform.InvokeResult{}, werr
	}
	if out.backup {
		qs.HedgesWon++
		qs.FaultsSurvived++
		asp.Event("hedge-win")
	}
	endAttempt(asp, nil)
	return out.res, nil
}

// endAttempt settles an attempt span: mark the failure, then close it.
func endAttempt(asp *trace.Span, err error) {
	if err != nil {
		asp.Fail("", err.Error())
	}
	asp.EndSpan()
}

// fetchWeights is the storage round of a whole group whose weights object
// storage keeps (groupRuntime.weights): one fetch, charged at storage speed
// once for all the pass's queries, in a span of its own under sp.
func fetchWeights(ctx *platform.Ctx, gr *groupRuntime, sp *trace.Span) error {
	fsp := sp.Child(trace.KindFetch, "fetch")
	defer fsp.EndSpan()
	err := ctx.StorageGet(gr.weights)
	if err != nil {
		fsp.Fail("", err.Error())
	}
	return err
}

// fallbackLocal is the graceful-degradation path for a DimNone group whose
// worker failed past the retry budget: the master fetches the group's
// weights from object storage and executes the group locally. Real-mode
// outputs are computed by the same kernels, so the result stays bitwise
// identical to the healthy path.
func (d *Deployment) fallbackLocal(ctx *platform.Ctx, gr *groupRuntime, size int, ins []*tensor.Tensor, qs *Resilience, gsp *trace.Span) (batch, error) {
	fsp := gsp.Child(trace.KindFallback, "fallback")
	defer fsp.EndSpan()
	if err := fetchWeights(ctx, gr, fsp); err != nil {
		fsp.Fail("", err.Error())
		return batch{}, err
	}
	qs.Fallbacks++
	qs.FaultsSurvived++
	return d.compute(ctx, gr, 0, size, ins, fsp)
}
