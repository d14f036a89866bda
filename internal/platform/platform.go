// Package platform simulates serverless FaaS platforms — AWS Lambda, Google
// Cloud Functions, and KNIX — on top of the simnet discrete-event kernel.
// It models the properties that matter to Gillis's partitioning decisions:
// per-function weight budgets, effective compute throughput, per-function
// network bandwidth (request payloads serialize on the invoker's uplink),
// EMG-distributed invocation overhead (as measured by the paper in §IV-A),
// cold versus warm starts, billed-duration accounting at the platform's
// billing granularity, and S3-like object storage for the Pipeline
// baseline.
//
// The real clouds are substituted by this simulator (see DESIGN.md); the
// partitioning algorithms consume only profiled performance models, in the
// paper and here alike, so algorithmic behaviour is preserved.
package platform

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"gillis/internal/simnet"
	"gillis/internal/stats"
	"gillis/internal/trace"
)

// Config describes one serverless platform.
type Config struct {
	Name string
	// WeightBudgetMB is the usable model-weight budget M per function after
	// OS, runtime, and activation overheads (1400 MB in §V-A).
	WeightBudgetMB int
	// GFLOPS is the effective single-instance compute throughput.
	GFLOPS float64
	// MemGBps is the effective memory bandwidth: operators pay
	// bytesTouched/MemGBps on top of their FLOP time.
	MemGBps float64
	// OpOverheadMs is the fixed per-operator dispatch cost.
	OpOverheadMs float64
	// NetMBps is the per-function network bandwidth for request/response
	// payloads.
	NetMBps float64
	// RequestOverheadMs is the caller-side CPU cost of issuing one REST
	// invocation (payload serialization, connection handling); it serializes
	// on the caller's uplink, so wide fan-outs pay it per worker.
	RequestOverheadMs float64
	// InvokeOverhead is the REST invocation overhead distribution in
	// milliseconds.
	InvokeOverhead stats.EMG
	// BillingGranMs is the billing granularity in milliseconds (1 for
	// Lambda, 100 for Google Cloud Functions).
	BillingGranMs int64
	// ColdStartMs is the instance cold-start penalty.
	ColdStartMs float64
	// StorageMBps and StorageLatencyMs model S3-like object storage.
	StorageMBps      float64
	StorageLatencyMs float64
	// ComputeNoise is the lognormal sigma applied to compute durations.
	ComputeNoise float64
	// WarmIdleMs is the warm-instance idle expiry: an instance that has sat
	// unused in the warm pool for WarmIdleMs or more of virtual time is
	// reclaimed, so the next acquisition pays a cold start. Zero keeps
	// instances warm forever (the pre-gateway behaviour).
	WarmIdleMs float64
	// PrewarmMs is the billed duration charged per prewarmed instance: a
	// warm-up ping occupies the instance for roughly its cold-start time, and
	// the platform bills it like any other invocation. Zero makes prewarming
	// free (the paper's idealization, and the pre-gateway behaviour).
	PrewarmMs float64
	// Faults injects platform failures; the zero value models a perfect
	// cloud (the pre-fault-injection behaviour).
	Faults FaultProfile
	// FaultSchedule replaces the active fault profile at scheduled virtual
	// times, so a replay can cross fault-regime changes (stock platform
	// degrading mid-trace, then recovering). Faults is in force from t=0;
	// each transition replaces the active profile wholesale from its
	// instant. The active profile is a pure function of virtual time, so
	// scheduled regimes replay exactly. An empty schedule preserves the
	// single-profile behaviour bit-for-bit.
	FaultSchedule []FaultTransition
}

// FaultTransition schedules one wholesale fault-profile replacement.
type FaultTransition struct {
	// AtMs is the virtual time, in milliseconds since the simulation
	// epoch, at which Profile takes effect.
	AtMs float64
	// Profile is the fault profile in force from AtMs until the next
	// transition (if any). It replaces the previous profile entirely —
	// fields are not merged.
	Profile FaultProfile
}

// FaultsAt resolves the fault profile in force at virtual time now:
// Config.Faults until the first scheduled transition, then the latest
// transition whose instant has passed. New sorts the schedule by AtMs, so a
// linear scan resolves it.
func (c Config) FaultsAt(now time.Duration) FaultProfile {
	f := c.Faults
	nowMs := durToMs(now)
	for _, t := range c.FaultSchedule {
		if nowMs < t.AtMs {
			break
		}
		f = t.Profile
	}
	return f
}

// FaultProfile describes the imperfections of a real serverless platform:
// invocation failures, long-tail stragglers and instance eviction. All faults are drawn from a dedicated RNG seeded from
// the platform seed, in a fixed per-invocation order, so a fault schedule
// replays exactly for a given seed — and enabling faults does not perturb
// the platform's compute-noise or invocation-overhead streams.
type FaultProfile struct {
	// FailureProb is the per-invocation probability that the function
	// crashes during execution. The handler's work is done and billed, but
	// the response is lost — the worst case for a fork-join caller.
	FailureProb float64
	// StragglerProb is the per-invocation probability that the instance
	// runs degraded, with its compute durations multiplied by
	// StragglerFactor.
	StragglerProb float64
	// StragglerFactor is the compute slowdown of a straggler instance
	// (DefaultStragglerFactor when a straggler is drawn and this is unset).
	StragglerFactor float64
	// EvictionProb is the per-invocation probability that the platform
	// reclaims the hosting instance between dispatch and execution: the
	// handler never runs, nothing is billed, and a claimed warm instance
	// is destroyed rather than returned to the pool.
	EvictionProb float64
}

// DefaultStragglerFactor is the compute slowdown applied to stragglers when
// a FaultProfile enables them without choosing a factor.
const DefaultStragglerFactor = 4.0

// active reports whether any fault class is enabled.
func (f FaultProfile) active() bool {
	return f.FailureProb > 0 || f.StragglerProb > 0 || f.EvictionProb > 0
}

// FaultKind classifies an injected invocation fault.
type FaultKind int

// Fault kinds.
const (
	// FaultFailure: the function crashed (injected, or a handler error).
	FaultFailure FaultKind = iota + 1
	// FaultEvicted: the platform reclaimed the hosting instance before
	// the handler could run.
	FaultEvicted
)

func (k FaultKind) String() string {
	switch k {
	case FaultFailure:
		return "failure"
	case FaultEvicted:
		return "evicted"
	}
	return fmt.Sprintf("FaultKind(%d)", int(k))
}

// InvokeError is the typed error of a failed invocation. The partial
// billing of the failed attempt is attached in Res (Resp is empty): the
// platform bills crashed invocations for their full handler duration,
// exactly as the real clouds do.
type InvokeError struct {
	Kind FaultKind
	Fn   string
	Res  InvokeResult
	// Err is the underlying handler error for FaultFailure, nil for
	// injected faults.
	Err error
}

func (e *InvokeError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("platform: function %q: %v", e.Fn, e.Err)
	}
	if e.Kind == FaultEvicted {
		return fmt.Sprintf("platform: function %q: instance evicted before execution", e.Fn)
	}
	return fmt.Sprintf("platform: function %q: injected invocation failure", e.Fn)
}

func (e *InvokeError) Unwrap() error { return e.Err }

// BilledMsOf extracts the billed duration attached to a failed invocation's
// error (0 when err carries no billing). Callers use it to account for the
// cost of failed, retried, and abandoned attempts.
func BilledMsOf(err error) int64 {
	var ie *InvokeError
	if errors.As(err, &ie) {
		return ie.Res.TotalBilledMs
	}
	return 0
}

// FaultKindOf extracts the fault kind attached to a failed invocation's
// error. The second return is false when err carries no typed fault (e.g. a
// plain handler error that never reached the platform).
func FaultKindOf(err error) (FaultKind, bool) {
	var ie *InvokeError
	if errors.As(err, &ie) {
		return ie.Kind, true
	}
	return 0, false
}

// AWSLambda returns the AWS Lambda profile used in the paper's experiments
// (3 GB instances, 1 ms billing).
func AWSLambda() Config {
	return Config{
		Name:              "lambda",
		WeightBudgetMB:    1400,
		GFLOPS:            20,
		MemGBps:           8,
		OpOverheadMs:      0.05,
		NetMBps:           40, // ~320 Mb/s (§II-B measures ~300 Mb/s per function)
		RequestOverheadMs: 2.5,
		InvokeOverhead:    stats.EMG{Mu: 12, Sigma: 3, Lambda: 0.125},
		BillingGranMs:     1,
		ColdStartMs:       180,
		StorageMBps:       85,
		StorageLatencyMs:  30,
		ComputeNoise:      0.02,
	}
}

// GoogleCloudFunctions returns the GCF profile (4 GB instances, more CPU per
// instance than Lambda, 100 ms billing, slower network).
func GoogleCloudFunctions() Config {
	return Config{
		Name:              "gcf",
		WeightBudgetMB:    1900, // 4 GB instances host more weights than Lambda's 3 GB
		GFLOPS:            26,
		MemGBps:           10,
		OpOverheadMs:      0.05,
		NetMBps:           37.5, // ~300 Mb/s (§II-B)
		RequestOverheadMs: 3,
		InvokeOverhead:    stats.EMG{Mu: 20, Sigma: 5, Lambda: 0.08},
		BillingGranMs:     100,
		ColdStartMs:       300,
		StorageMBps:       50,
		StorageLatencyMs:  40,
		ComputeNoise:      0.02,
	}
}

// KNIX returns the KNIX profile: function resources matched to a Lambda
// instance (§V-A) but with compute-collocated storage giving much faster
// function interactions.
func KNIX() Config {
	return Config{
		Name:              "knix",
		WeightBudgetMB:    1400,
		GFLOPS:            20,
		MemGBps:           8,
		OpOverheadMs:      0.05,
		NetMBps:           250, // Redis-backed local data plane
		RequestOverheadMs: 1,
		InvokeOverhead:    stats.EMG{Mu: 2.5, Sigma: 0.6, Lambda: 0.8},
		BillingGranMs:     1,
		ColdStartMs:       80,
		StorageMBps:       300,
		StorageLatencyMs:  2,
		ComputeNoise:      0.02,
	}
}

// ByName returns a platform profile by name.
func ByName(name string) (Config, error) {
	switch name {
	case "lambda":
		return AWSLambda(), nil
	case "gcf":
		return GoogleCloudFunctions(), nil
	case "knix":
		return KNIX(), nil
	}
	return Config{}, fmt.Errorf("platform: unknown platform %q", name)
}

// Payload is a request or response body: an explicit wire size plus an
// arbitrary in-simulation value (e.g. a tensor, or a shape-only
// descriptor).
type Payload struct {
	Bytes int64
	Data  any
}

// Handler is the code of a serverless function.
type Handler func(ctx *Ctx, payload Payload) (Payload, error)

// InvokeResult reports one completed invocation.
type InvokeResult struct {
	Resp Payload
	// HandlerMs is the billed-duration basis: handler execution time.
	HandlerMs float64
	// BilledMs is HandlerMs rounded up to the billing granularity.
	BilledMs int64
	// TotalBilledMs adds the billed durations of all nested invocations.
	TotalBilledMs int64
	// OverheadMs is the invocation dispatch overhead drawn for this call.
	OverheadMs float64
	// ColdStart reports whether this invocation paid a cold start.
	ColdStart bool
}

// Function is a registered function with its warm-instance pool. The pool
// holds each idle instance's last-used virtual time; acquisition is LIFO
// (most recently used first), which keeps the pool small under idle expiry,
// exactly like the real clouds' instance reuse. A caller that polls a
// function on every control tick holds its *Function rather than its name.
type Function struct {
	p       *Platform
	name    string
	handler Handler
	warm    []time.Duration // idle instances' available-since stamps, oldest first
}

// Platform is one simulated serverless deployment. Its state belongs to the
// goroutine that runs its Env: every invocation is a coroutine of Env.Run,
// set-up and the counter reads happen before and after Run on that same
// goroutine, so nothing here locks (DESIGN §3). Only the metrics registry is
// shared with other goroutines, and it synchronises itself.
type Platform struct {
	cfg Config
	env *simnet.Env
	m   *pmetrics

	rng             *rand.Rand
	faultRng        *rand.Rand // dedicated stream: faults don't perturb noise/overhead draws
	fns             map[string]*Function
	storage         map[string]int64 // object sizes in bytes
	billedMs        int64
	prewarmBilledMs int64
	deploySeq       int64
	calls           *Call // released invocation records, ready for reuse
}

// NextDeploySeq numbers deployments registered on this platform. Keeping
// the counter per-platform (not process-global) makes function-name
// prefixes replay-stable: two identical replays on fresh platforms yield
// identical names, and therefore bit-identical error strings.
func (p *Platform) NextDeploySeq() int64 {
	p.deploySeq++
	return p.deploySeq
}

// pmetrics caches the platform's metric handles so the invocation hot path
// pays no registry lookups.
type pmetrics struct {
	reg          *trace.Registry
	invocations  *trace.Counter
	coldStarts   *trace.Counter
	billedMs     *trace.Counter
	faultFailure *trace.Counter
	faultEvicted *trace.Counter
	prewarms     *trace.Counter
	// warmExpired counts instances reclaimed for idling WarmIdleMs, when
	// the pool is next read: by a WarmCount poll (a gateway's control
	// loop), or with no poller by the function's next invocation, so an
	// expiry after a function's last invocation goes uncounted.
	warmExpired *trace.Counter
	overheadMs  *trace.Histogram
	handlerMs   *trace.Histogram
}

func newPMetrics(reg *trace.Registry) *pmetrics {
	return &pmetrics{
		reg:          reg,
		invocations:  reg.Counter("platform.invocations"),
		coldStarts:   reg.Counter("platform.cold_starts"),
		billedMs:     reg.Counter("platform.billed_ms"),
		faultFailure: reg.Counter("platform.faults.failure"),
		faultEvicted: reg.Counter("platform.faults.evicted"),
		prewarms:     reg.Counter("platform.prewarms"),
		warmExpired:  reg.Counter("platform.warm_expired"),
		overheadMs:   reg.Histogram("platform.overhead_ms"),
		handlerMs:    reg.Histogram("platform.handler_ms"),
	}
}

// New creates a platform simulation bound to env.
func New(env *simnet.Env, cfg Config, seed int64) *Platform {
	if len(cfg.FaultSchedule) > 1 {
		sched := append([]FaultTransition(nil), cfg.FaultSchedule...)
		sort.SliceStable(sched, func(i, j int) bool { return sched[i].AtMs < sched[j].AtMs })
		cfg.FaultSchedule = sched
	}
	return &Platform{
		cfg:      cfg,
		env:      env,
		m:        newPMetrics(trace.NewRegistry()),
		rng:      rand.New(rand.NewSource(seed)),
		faultRng: rand.New(rand.NewSource(seed ^ faultSeedSalt)),
		fns:      make(map[string]*Function),
		storage:  make(map[string]int64),
	}
}

// Run is one whole simulation: it creates an Env and a platform on it, runs
// body as the simulation's first process and drains the Env, so every process
// body spawned has finished too. It returns body's error, or else the
// simulation's (a process parked for ever). The platform comes back either
// way: its counters are read after the drain.
func Run(cfg Config, seed int64, body func(p *Platform, proc *simnet.Proc) error) (*Platform, error) {
	env := simnet.NewEnv()
	p := New(env, cfg, seed)
	var bodyErr error
	env.Go("client", func(proc *simnet.Proc) { bodyErr = body(p, proc) })
	if err := env.Run(); err != nil && bodyErr == nil {
		return p, err
	}
	return p, bodyErr
}

// Metrics returns the registry the platform records invocation metrics into.
func (p *Platform) Metrics() *trace.Registry { return p.m.reg }

// UseMetrics redirects the platform's metric recording into reg, so several
// platforms (e.g. one per served request) can aggregate into one registry.
// Call it before the simulation runs; it is not safe concurrently with
// in-flight invocations.
func (p *Platform) UseMetrics(reg *trace.Registry) {
	p.m = newPMetrics(reg)
}

// faultSeedSalt decorrelates the fault stream from the noise stream while
// keeping both a pure function of the platform seed.
const faultSeedSalt = 0x5e3779b97f4a7c15

// Config returns the platform profile.
func (p *Platform) Config() Config { return p.cfg }

// Env returns the simulation environment.
func (p *Platform) Env() *simnet.Env { return p.env }

// Register deploys a function under the given name.
func (p *Platform) Register(name string, h Handler) error {
	if _, ok := p.fns[name]; ok {
		return fmt.Errorf("platform: function %q already registered", name)
	}
	p.fns[name] = &Function{p: p, name: name, handler: h}
	return nil
}

// Function returns the registered function's handle, nil if name is not
// registered.
func (p *Platform) Function(name string) *Function { return p.fns[name] }

// Prewarm adds n warm instances of the function, modeling the paper's
// warm-up pings (§III-A). When the platform charges for warm-up pings
// (Config.PrewarmMs > 0), each prewarmed instance bills PrewarmMs at the
// billing granularity — prewarming buys latency with money, which is the
// whole trade-off the gateway's autoscaling policies navigate. With
// PrewarmMs zero the ping cost is ignored, as in the paper.
func (p *Platform) Prewarm(name string, n int) error {
	now := p.env.Now()
	f, ok := p.fns[name]
	if !ok {
		return fmt.Errorf("platform: prewarm of unknown function %q", name)
	}
	var cost int64
	if p.cfg.PrewarmMs > 0 {
		cost = Billed(p.cfg.PrewarmMs, p.cfg.BillingGranMs) * int64(n)
		p.billedMs += cost
		p.prewarmBilledMs += cost
	}
	for i := 0; i < n; i++ {
		f.warm = append(f.warm, now)
	}
	p.m.prewarms.Add(int64(n))
	if cost > 0 {
		p.m.billedMs.Add(cost)
	}
	return nil
}

// expireWarm drops instances that have idled in the pool for
// WarmIdleMs or more of virtual time. Expiry is evaluated lazily, on every
// pool access, which is deterministic because accesses happen at virtual
// times fixed by the simulation. It returns how many instances expired.
func (p *Platform) expireWarm(f *Function, now time.Duration) int {
	idle := p.cfg.WarmIdleMs
	if idle <= 0 {
		return 0
	}
	cutoff := msToDur(idle)
	n := 0
	for n < len(f.warm) && now-f.warm[n] >= cutoff {
		n++
	}
	if n > 0 {
		// Copied down, not resliced: the pool keeps one backing array.
		f.warm = f.warm[:copy(f.warm, f.warm[n:])]
	}
	return n
}

// WarmCount returns the function's current idle warm-instance count after
// applying idle expiry at the current virtual time. Autoscaling controllers
// poll it to decide how many instances to prewarm.
func (f *Function) WarmCount() int {
	p := f.p
	expired := p.expireWarm(f, p.env.Now())
	n := len(f.warm)
	if expired > 0 {
		p.m.warmExpired.Add(int64(expired))
	}
	return n
}

// BilledMsTotal returns the billed milliseconds of every settled
// invocation, successful or not, plus prewarm charges. Unlike per-query
// roll-ups, it also counts attempts whose caller stopped waiting (abandoned
// stragglers), so it is the authoritative cost figure for chaos and load
// experiments.
func (p *Platform) BilledMsTotal() int64 {
	return p.billedMs
}

// PrewarmBilledMs returns the portion of BilledMsTotal charged for warm-up
// pings (zero unless Config.PrewarmMs is set). Per-query trace roll-ups
// exclude it: no invocation span carries it.
func (p *Platform) PrewarmBilledMs() int64 {
	return p.prewarmBilledMs
}

// Ctx is the execution context of one running function instance. Nested
// invocations still in flight when the handler returns keep using the Ctx
// (its links and its billing accumulator), but never its Proc: that process
// has moved on, back to an InvokeFrom caller, or died with an InvokeAsync
// (see simnet.Proc). A Ctx is part of its invocation's Call record, which
// the platform recycles once nothing holds it: a handler must not keep its
// Ctx past its return unless it holds it (Hold).
type Ctx struct {
	platform *Platform
	call     *Call // the record this Ctx is part of
	proc     *simnet.Proc
	uplink   simnet.Resource
	downlink simnet.Resource
	span     *trace.Span // exec span of this invocation; nil when untraced
	start    time.Duration
	slow     float64 // straggler compute multiplier (1 = healthy)
	children int64   // billed ms accumulated from nested invocations
}

// Call is one invocation: the Ctx its handler runs with and, for an
// asynchronous one, the promise of its result. Calls are records on the
// platform's free list (an Env runs one process at a time, so plain counts
// keep them without locks). A Call goes back to the list when its last
// holder lets go. The holders are:
//   - the invocation itself, until it has settled;
//   - its caller, for an asynchronous invocation, until Release;
//   - every unsettled invocation it made, which uses its Ctx as the caller's;
//   - whoever called Hold on its Ctx, until the matching Release.
//
// A Call whose caller never releases it is left to the collector.
type Call struct {
	ctx     Ctx
	result  simnet.Promise[InvokeResult]
	run     func(*simnet.Proc) // c.body, bound once: spawning it allocates nothing
	from    *Call              // the invoking instance's; nil for an external client
	name    string
	payload Payload
	span    *trace.Span // the invocation span; nil when untraced
	holds   int
	next    *Call // the next released record, while this one is on the free list
}

// newCall takes a record off the free list, or makes one, held once: by the
// invocation it is for.
func (p *Platform) newCall(from *Call, sp *trace.Span, name string, payload Payload) *Call {
	c := p.calls
	if c != nil {
		if c.ctx.children != 0 {
			panic("platform: a released Call was billed: a holder let go too early")
		}
		p.calls, c.next = c.next, nil
	} else {
		c = &Call{}
		c.ctx.platform, c.ctx.call = p, c
		c.run = c.body
		c.result.Reset(p.env)
	}
	c.from, c.span, c.name, c.payload, c.holds = from, sp, name, payload, 1
	if from != nil {
		from.holds++
	}
	return c
}

// Release lets go of one hold on c; the last puts c back on the free list.
// Its links are idle then (every invocation it made has settled), so their
// queues are kept for the next invocation. An asynchronous invocation's
// caller calls it once it will not read the Call again; the invocation
// itself may still be running.
func (c *Call) Release() {
	if c.holds--; c.holds > 0 {
		return
	}
	if c.holds < 0 {
		panic("platform: Call released more often than it was held")
	}
	p := c.ctx.platform
	c.ctx = Ctx{platform: p, call: c, uplink: c.ctx.uplink, downlink: c.ctx.downlink}
	c.result.Reset(p.env)
	c.from, c.span, c.name, c.payload = nil, nil, "", Payload{}
	c.next, p.calls = p.calls, c
}

// Wait parks proc until the invocation settles and returns its result.
func (c *Call) Wait(proc *simnet.Proc) (InvokeResult, error) { return c.result.Wait(proc) }

// WaitTimeout is Wait with a deadline (see simnet.Promise.WaitTimeout).
func (c *Call) WaitTimeout(proc *simnet.Proc, d time.Duration) (InvokeResult, error) {
	return c.result.WaitTimeout(proc, d)
}

// Hold keeps the Ctx usable as a caller (InvokeAsync) after its handler has
// returned, until the matching Release: for a process the handler started
// that invokes on its behalf.
func (c *Ctx) Hold() { c.call.holds++ }

// Release lets go of a Hold.
func (c *Ctx) Release() { c.call.Release() }

// Span returns this invocation's execution span (nil when the invocation is
// untraced). Handlers use it to attach child spans and events; nil receivers
// are safe everywhere in package trace, so handlers need no tracing check.
func (c *Ctx) Span() *trace.Span { return c.span }

// Platform returns the hosting platform.
func (c *Ctx) Platform() *Platform { return c.platform }

// Proc returns the simnet process executing this function: the caller's own
// for an InvokeFrom, one of the invocation's own for an InvokeAsync. It is
// valid only while the handler runs.
func (c *Ctx) Proc() *simnet.Proc { return c.proc }

// ComputeOp advances virtual time for one operator execution: FLOP time at
// the platform's throughput, plus memory-bandwidth time for bytesTouched,
// plus the fixed operator dispatch overhead, with multiplicative lognormal
// noise.
func (c *Ctx) ComputeOp(flops, bytesTouched int64) {
	cfg := c.platform.cfg
	sec := float64(flops) / (cfg.GFLOPS * 1e9)
	if cfg.MemGBps > 0 {
		sec += float64(bytesTouched) / (cfg.MemGBps * 1e9)
	}
	sec += cfg.OpOverheadMs / 1000
	if sec <= 0 {
		return
	}
	if c.slow > 1 {
		sec *= c.slow
	}
	noise := 1.0
	if s := cfg.ComputeNoise; s > 0 {
		noise = math.Exp(c.platform.rng.NormFloat64() * s)
	}
	c.proc.Sleep(time.Duration(sec * noise * float64(time.Second)))
}

// settled recovers the billed InvokeResult carried inside a typed
// InvokeError, so synchronous callers see partial billing alongside the
// error instead of a zero result.
func settled(res InvokeResult, err error) (InvokeResult, error) {
	if err != nil {
		var ie *InvokeError
		if errors.As(err, &ie) {
			return ie.Res, err
		}
	}
	return res, err
}

// InvokeAsync starts an invocation and returns its Call, which the caller
// waits on and releases when it is done with it. The request payload
// serializes on this instance's uplink and the response on its downlink,
// reproducing the synchronization overhead that makes very wide fan-outs
// counterproductive on Lambda (Fig. 7).
func (c *Ctx) InvokeAsync(name string, payload Payload) *Call {
	call, _ := c.InvokeAsyncSpan(name, payload, nil)
	return call
}

// InvokeAsyncSpan is InvokeAsync with explicit trace parentage: the new
// invocation's span becomes a child of parent (or of this instance's own
// execution span when parent is nil) and is returned so the caller can attach
// attempt metadata.
func (c *Ctx) InvokeAsyncSpan(name string, payload Payload, parent *trace.Span) (*Call, *trace.Span) {
	if parent == nil {
		parent = c.span
	}
	call := c.platform.invokeAsync(c.call, parent, name, payload)
	return call, call.span
}

// InvokeOn is InvokeAsyncSpan and a Wait without the process and the promise
// between them: the invocation runs on proc, a process this instance started
// to invoke on its behalf (holding the Ctx, see Hold). Its request still
// serializes on this instance's uplink and its billing joins this
// instance's. It starts at once, where InvokeAsync's would start when its
// process is scheduled, so a proc spawned to make the call keeps
// InvokeAsync's event order. A failure's result carries its billing.
func (c *Ctx) InvokeOn(proc *simnet.Proc, name string, payload Payload, parent *trace.Span) (InvokeResult, error) {
	if parent == nil {
		parent = c.span
	}
	p := c.platform
	call := p.newCall(c.call, invokeSpan(parent, name), name, payload)
	res, err := p.runInvocation(proc, call)
	c.call.Release()
	call.Release()
	return res, err
}

// StorageGet fetches an object, charging storage latency plus transfer time
// for its size.
func (c *Ctx) StorageGet(key string) error {
	p := c.platform
	bytes, ok := p.storage[key]
	if !ok {
		return fmt.Errorf("platform: storage object %q not found", key)
	}
	c.proc.Sleep(p.cfg.StorageTime(bytes))
	return nil
}

// StorageTime is what fetching an object of the given size from object
// storage takes: the storage latency plus its transfer at storage bandwidth.
func (c Config) StorageTime(bytes int64) time.Duration {
	return msToDur(c.StorageLatencyMs + float64(bytes)/1e6/c.StorageMBps*1000)
}

// Seed stores an object of the given size directly (no simulated time), for
// deployment set-up. Only sizes are kept: nothing reads an object's contents.
func (p *Platform) Seed(key string, bytes int64) { p.storage[key] = bytes }

// InvokeFrom invokes a function from a plain simulation process (an external
// client): invocation overhead and payload transfer still apply, but no
// uplink serialization, since the client is not a constrained function.
func (p *Platform) InvokeFrom(proc *simnet.Proc, name string, payload Payload) (InvokeResult, error) {
	return p.InvokeFromSpan(proc, name, payload, nil)
}

// InvokeFromSpan is InvokeFrom with the invocation's span attached under
// parent (untraced when parent is nil).
//
// The invocation runs on proc itself, so the handler's Ctx.Proc is proc. It
// is ordered as if it ran on a process of its own that proc waits for: the
// first Sleep(0) takes the sequence number spawning that process would have
// taken, the second the one resolving the caller's promise would have, so
// every other event keeps its place (DESIGN §3).
func (p *Platform) InvokeFromSpan(proc *simnet.Proc, name string, payload Payload, parent *trace.Span) (InvokeResult, error) {
	c := p.newCall(nil, invokeSpan(parent, name), name, payload)
	proc.Sleep(0)
	res, err := p.runInvocation(proc, c)
	proc.Sleep(0)
	c.Release()
	return settled(res, err)
}

// invokeSpan opens an invocation's span under parent; an untraced
// invocation (nil parent) builds no name.
func invokeSpan(parent *trace.Span, name string) *trace.Span {
	if parent == nil {
		return nil
	}
	return parent.Child(trace.KindInvoke, "invoke:"+name)
}

// invokeAsync starts an invocation on a process of its own and returns its
// Call, held by the invocation and by the caller.
func (p *Platform) invokeAsync(from *Call, parent *trace.Span, name string, payload Payload) *Call {
	c := p.newCall(from, invokeSpan(parent, name), name, payload)
	c.holds++
	p.env.Go("invoke", c.run)
	return c
}

// body is an asynchronous invocation's process: it runs the invocation,
// lets go of its caller's Call, settles the promise and lets go of its own.
func (c *Call) body(proc *simnet.Proc) {
	res, err := c.ctx.platform.runInvocation(proc, c)
	if c.from != nil {
		c.from.Release()
	}
	if err != nil {
		c.result.Fail(err)
	} else {
		c.result.Resolve(res)
	}
	c.Release()
}

// runInvocation runs the invocation c is for on proc.
func (p *Platform) runInvocation(proc *simnet.Proc, c *Call) (InvokeResult, error) {
	sp, name, payload := c.span, c.name, c.payload
	var from *Ctx
	if c.from != nil {
		from = &c.from.ctx
	}
	f, ok := p.fns[name]
	if !ok {
		err := fmt.Errorf("platform: invoke of unknown function %q", name)
		sp.Fail("", err.Error())
		sp.EndSpan()
		return InvokeResult{}, err
	}

	var res InvokeResult

	// Request issuance + upload: function callers pay the per-request CPU
	// cost and serialize on their uplink; external clients only pay the
	// transfer.
	upMs := float64(payload.Bytes) / 1e6 / p.cfg.NetMBps * 1000
	usp := sp.Child(trace.KindUpload, "upload")
	if from != nil {
		from.uplink.Acquire(proc)
		proc.Sleep(msToDur(p.cfg.RequestOverheadMs + upMs))
		from.uplink.Release()
	} else {
		proc.Sleep(msToDur(upMs))
	}
	usp.EndSpan()

	// Invocation dispatch overhead (EMG, §IV-A).
	overhead := p.cfg.InvokeOverhead.Sample(p.rng)
	dsp := sp.Child(trace.KindDispatch, "dispatch")
	proc.Sleep(msToDur(overhead))
	dsp.EndSpan()
	res.OverheadMs = overhead

	// Fault draws: always in the same per-invocation order, from the
	// dedicated fault RNG, so the schedule is a pure function of the
	// platform seed and the (deterministic) invocation order. The profile
	// is resolved at the draw instant, so a scheduled regime change applies
	// to every invocation dispatched after its transition time.
	faults := p.cfg.FaultsAt(proc.Now())
	var evicted, crash bool
	slow := 1.0
	if faults.active() {
		if faults.EvictionProb > 0 && p.faultRng.Float64() < faults.EvictionProb {
			evicted = true
		}
		if faults.FailureProb > 0 && p.faultRng.Float64() < faults.FailureProb {
			crash = true
		}
		if faults.StragglerProb > 0 && p.faultRng.Float64() < faults.StragglerProb {
			slow = faults.StragglerFactor
			if slow <= 1 {
				slow = DefaultStragglerFactor
			}
		}
	}

	// Instance acquisition: warm pool (most recently used instance first,
	// after expiring instances that idled past WarmIdleMs) or cold start.
	now := proc.Now()
	expired := p.expireWarm(f, now)
	if n := len(f.warm); n > 0 {
		f.warm = f.warm[:n-1]
	} else {
		res.ColdStart = true
	}
	if expired > 0 {
		p.m.warmExpired.Add(int64(expired))
	}

	if evicted {
		// The platform reclaimed the instance between dispatch and
		// execution: the handler never runs, nothing is billed, and the
		// claimed warm instance (if any) is destroyed.
		p.m.invocations.Inc()
		p.m.faultEvicted.Inc()
		p.m.overheadMs.Observe(overhead)
		ierr := &InvokeError{Kind: FaultEvicted, Fn: name, Res: res}
		sp.SetBilled(0, 0)
		sp.Fail(FaultEvicted.String(), ierr.Error())
		sp.EndSpan()
		return res, ierr
	}

	if res.ColdStart {
		csp := sp.Child(trace.KindColdStart, "coldstart")
		proc.Sleep(msToDur(p.cfg.ColdStartMs))
		csp.EndSpan()
		sp.SetAttr("cold", "1")
	}

	ctx := &c.ctx
	ctx.proc, ctx.span, ctx.slow = proc, sp.Child(trace.KindExec, "exec"), slow
	ctx.start = proc.Now()
	resp, herr := f.handler(ctx, payload)
	ctx.span.EndSpan()

	res.HandlerMs = durToMs(proc.Now() - ctx.start)
	res.BilledMs = Billed(res.HandlerMs, p.cfg.BillingGranMs)
	res.TotalBilledMs = res.BilledMs + ctx.children

	// Settle the invocation exactly once: the instance returns to the warm
	// pool (stamped with the current virtual time for idle expiry), and the
	// invocation counts (and bills) even if the handler failed.
	f.warm = append(f.warm, proc.Now())
	p.billedMs += res.BilledMs

	p.m.invocations.Inc()
	if res.ColdStart {
		p.m.coldStarts.Inc()
	}
	p.m.billedMs.Add(res.BilledMs)
	p.m.overheadMs.Observe(overhead)
	p.m.handlerMs.Observe(res.HandlerMs)

	// Charge the caller's nested-billing accumulator exactly once, on
	// every settled path — failed invocations are billed too.
	if from != nil {
		from.children += res.TotalBilledMs
	}

	// The invocation span owns this instance's own billed duration; nested
	// invocations carry their own spans, so a flat sum over all spans
	// reproduces the platform's authoritative BilledMsTotal.
	sp.SetBilled(res.BilledMs, res.TotalBilledMs)

	switch {
	case herr != nil:
		p.m.faultFailure.Inc()
		ierr := &InvokeError{Kind: FaultFailure, Fn: name, Res: res, Err: herr}
		sp.Fail(FaultFailure.String(), ierr.Error())
		sp.EndSpan()
		return res, ierr
	case crash:
		// The handler finished its (billed) work but crashed before the
		// response left the instance.
		p.m.faultFailure.Inc()
		ierr := &InvokeError{Kind: FaultFailure, Fn: name, Res: res}
		sp.Fail(FaultFailure.String(), ierr.Error())
		sp.EndSpan()
		return res, ierr
	}

	// Response download: serialized on the caller's downlink.
	downMs := float64(resp.Bytes) / 1e6 / p.cfg.NetMBps * 1000
	wsp := sp.Child(trace.KindDownload, "download")
	if from != nil {
		from.downlink.Acquire(proc)
		proc.Sleep(msToDur(downMs))
		from.downlink.Release()
	} else {
		proc.Sleep(msToDur(downMs))
	}
	wsp.EndSpan()
	res.Resp = resp
	sp.EndSpan()
	return res, nil
}

// Billed rounds a duration of ms up to the next multiple of the billing
// granule gran — what the platform charges for it, and what the performance
// model and the planners predict it charges.
func Billed(ms float64, gran int64) int64 {
	if ms <= 0 {
		return 0
	}
	return int64(math.Ceil(ms/float64(gran))) * gran
}

func msToDur(ms float64) time.Duration {
	return time.Duration(ms * float64(time.Millisecond))
}

func durToMs(d time.Duration) float64 {
	return float64(d) / float64(time.Millisecond)
}
