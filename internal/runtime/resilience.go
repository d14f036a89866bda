package runtime

import (
	"errors"
	"fmt"
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
// master-local fallback for DimNone groups. A naive deployment (no
// resilience option set) still runs part of it: a whole group on a worker
// (remoteRound) always goes through callWorker, whose one attempt with no
// retry and no hedge is a plain invocation. Only a fork-join round's workers
// skip it, launched directly by launchWorker.

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

func (r *Resilience) add(o Resilience) {
	r.Retries += o.Retries
	r.Hedges += o.Hedges
	r.HedgesWon += o.HedgesWon
	r.FaultsSurvived += o.FaultsSurvived
	r.Fallbacks += o.Fallbacks
	r.ExtraBilledMs += o.ExtraBilledMs
}

// minHedgeSamples is how many latency observations a group needs before
// hedging activates; below it there is no meaningful percentile.
const minHedgeSamples = 8

// maxHedgeSamples bounds each group's latency window (oldest dropped).
const maxHedgeSamples = 256

// latencyHistory tracks per-group successful worker-call latencies; the
// hedging option derives its trigger threshold from it.
type latencyHistory struct {
	samples map[int][]float64
}

func newLatencyHistory() *latencyHistory {
	return &latencyHistory{samples: make(map[int][]float64)}
}

func (h *latencyHistory) record(gi int, ms float64) {
	s := append(h.samples[gi], ms)
	if len(s) > maxHedgeSamples {
		s = s[len(s)-maxHedgeSamples:]
	}
	h.samples[gi] = s
}

// threshold returns the pctl-th percentile of the group's observed
// latencies, and whether enough samples exist for hedging to activate.
func (h *latencyHistory) threshold(gi int, pctl float64) (float64, bool) {
	s := h.samples[gi]
	if len(s) < minHedgeSamples {
		return 0, false
	}
	return stats.Percentile(s, pctl), true
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

// callWorker invokes one worker partition with the deployment's full
// resilience budget: hedging, and bounded retries with exponential backoff.
// proc is the process driving the call (the master's own, or a spawned
// caller in a resilient fork-join round).
func (d *Deployment) callWorker(proc *simnet.Proc, ctx *platform.Ctx, gi, part int, req platform.Payload, qs *Resilience, parent *trace.Span) (platform.InvokeResult, error) {
	return d.callWorkerSpan(proc, ctx, gi, part, req, qs, callSpan(parent, gi, part))
}

// callSpan opens a worker call's span under parent; an untraced call (nil
// parent) builds no name.
func callSpan(parent *trace.Span, gi, part int) *trace.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(trace.KindCall, fmt.Sprintf("call:g%d.p%d", gi, part))
}

// callWorkerSpan is callWorker recording into an already-opened call span
// (launchWorker opens it at fork time, before the caller process is
// scheduled).
func (d *Deployment) callWorkerSpan(proc *simnet.Proc, ctx *platform.Ctx, gi, part int, req platform.Payload, qs *Resilience, csp *trace.Span) (platform.InvokeResult, error) {
	name := d.workerName(gi, part)
	attempts := d.opts.retries + 1
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			qs.Retries++
			csp.Event("retry", "attempt", strconv.Itoa(a))
			proc.Sleep(msToDur(d.opts.backoff(a)))
		}
		start := proc.Now()
		res, err := d.attemptWorker(proc, ctx, gi, name, req, qs, csp)
		if err == nil {
			d.hist.record(gi, float64(proc.Now()-start)/1e6)
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

// attemptWorker makes one invocation attempt, hedging with a backup request
// when the primary outlives the group's latency percentile.
func (d *Deployment) attemptWorker(proc *simnet.Proc, ctx *platform.Ctx, gi int, name string, req platform.Payload, qs *Resilience, csp *trace.Span) (platform.InvokeResult, error) {
	asp := csp.Child(trace.KindAttempt, "attempt")
	primary, psp := ctx.InvokeAsyncSpan(name, req, asp)

	var thresh float64
	hedging := false
	if d.opts.hedgePctl > 0 && !d.hedgeOff {
		thresh, hedging = d.hist.threshold(gi, d.opts.hedgePctl)
	}
	if !hedging {
		res, err := primary.Wait(proc)
		endAttempt(asp, err)
		return res, err
	}

	// Phase 1: give the primary until the hedge point before spending money
	// on a backup.
	res, err := primary.WaitTimeout(proc, msToDur(thresh))
	if err == nil || !errors.Is(err, simnet.ErrTimeout) {
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
	watch := func(pr *simnet.Promise[platform.InvokeResult], sp *trace.Span, isBackup bool) {
		env.Go("hedge-watch", func(wp *simnet.Proc) {
			res, err := pr.Wait(wp)
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

// launchWorker starts one fork-join worker call. Naive deployments keep the
// original direct InvokeAsync; resilient ones drive callWorker from a
// spawned caller process so retries and hedges of different partitions
// overlap in time, exactly like the original fork.
// It returns the promise together with the call's span (the invocation span
// on the naive path), so a failing fork-join round can mark still-running
// siblings abandoned.
func (d *Deployment) launchWorker(ctx *platform.Ctx, gi, part int, req platform.Payload, qs *Resilience, gsp *trace.Span) (*simnet.Promise[platform.InvokeResult], *trace.Span) {
	if !d.opts.resilient() {
		return ctx.InvokeAsyncSpan(d.workerName(gi, part), req, gsp)
	}
	csp := callSpan(gsp, gi, part)
	pr := simnet.NewPromise[platform.InvokeResult](d.p.Env())
	d.p.Env().Go("call", func(proc *simnet.Proc) {
		res, err := d.callWorkerSpan(proc, ctx, gi, part, req, qs, csp)
		if err != nil {
			pr.Fail(err)
			return
		}
		pr.Resolve(res)
	})
	return pr, csp
}

// abandonUnsettled marks the spans of still-unsettled sibling worker calls:
// their caller stopped waiting (the round already failed), so they settle
// after their parent ends — which trace invariants only accept when marked.
func abandonUnsettled(promises []*simnet.Promise[platform.InvokeResult], spans []*trace.Span) {
	for i, pr := range promises {
		if _, _, ok := pr.Poll(); !ok {
			spans[i].SetAttr("abandoned", "sibling-failure")
		}
	}
}

// fallbackKey names the object-storage copy of a group's weights kept for
// graceful degradation.
func (d *Deployment) fallbackKey(gi int) string {
	return fmt.Sprintf("%s-weights-g%d", d.prefix, gi)
}

// fallbackLocal is the graceful-degradation path for a DimNone group whose
// worker failed past the retry budget: the master fetches the group's
// weights from object storage (charged at storage speed, once for all the
// request's queries) and executes the group locally. Real-mode outputs are
// computed by the same kernels, so the result stays bitwise identical to the
// healthy path.
func (d *Deployment) fallbackLocal(ctx *platform.Ctx, gi int, gr *groupRuntime, size int, ins []*tensor.Tensor, qs *Resilience, gsp *trace.Span) ([]*tensor.Tensor, error) {
	fsp := gsp.Child(trace.KindFallback, "fallback")
	defer fsp.EndSpan()
	if _, err := ctx.StorageGet(d.fallbackKey(gi)); err != nil {
		fsp.Fail("", err.Error())
		return nil, err
	}
	qs.Fallbacks++
	qs.FaultsSurvived++
	return d.computeChain(ctx, gr, size, ins, fsp)
}
