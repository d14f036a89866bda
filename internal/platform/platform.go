// Package platform simulates serverless FaaS platforms — AWS Lambda, Google
// Cloud Functions, and KNIX — on top of the simnet discrete-event kernel.
// It models the properties that matter to Gillis's partitioning decisions:
// per-instance memory ceilings, effective compute throughput, per-function
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
	// MemoryMB is the per-instance memory ceiling.
	MemoryMB int
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
	// MaxConcurrency caps the number of simultaneously running invocations
	// per function (the real clouds' per-function concurrency limit). An
	// invocation arriving at the cap is rejected immediately with a typed
	// FaultThrottled error and bills nothing. Zero means unlimited (the
	// pre-gateway behaviour).
	MaxConcurrency int
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
	// FaultThrottled: the function was at its MaxConcurrency cap and the
	// platform rejected the invocation before any work ran. Nothing is
	// billed.
	FaultThrottled
)

func (k FaultKind) String() string {
	switch k {
	case FaultFailure:
		return "failure"
	case FaultEvicted:
		return "evicted"
	case FaultThrottled:
		return "throttled"
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
	switch e.Kind {
	case FaultEvicted:
		return fmt.Sprintf("platform: function %q: instance evicted before execution", e.Fn)
	case FaultThrottled:
		return fmt.Sprintf("platform: function %q: throttled at its concurrency limit", e.Fn)
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
		MemoryMB:          3008,
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
		MemoryMB:          4096,
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
		MemoryMB:          3008,
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
	// OverheadMs, UploadMs and DownloadMs decompose the communication cost
	// seen by the caller.
	OverheadMs, UploadMs, DownloadMs float64
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
	running int             // invocations currently in flight (MaxConcurrency accounting)
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
	storage         map[string]Object
	invoked         int64
	faulted         int64
	billedMs        int64
	prewarmBilledMs int64
	deploySeq       int64
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
	reg            *trace.Registry
	invocations    *trace.Counter
	coldStarts     *trace.Counter
	billedMs       *trace.Counter
	faultFailure   *trace.Counter
	faultEvicted   *trace.Counter
	faultThrottled *trace.Counter
	prewarms       *trace.Counter
	warmExpired    *trace.Counter
	overheadMs     *trace.Histogram
	handlerMs      *trace.Histogram
}

func newPMetrics(reg *trace.Registry) *pmetrics {
	return &pmetrics{
		reg:            reg,
		invocations:    reg.Counter("platform.invocations"),
		coldStarts:     reg.Counter("platform.cold_starts"),
		billedMs:       reg.Counter("platform.billed_ms"),
		faultFailure:   reg.Counter("platform.faults.failure"),
		faultEvicted:   reg.Counter("platform.faults.evicted"),
		faultThrottled: reg.Counter("platform.faults.throttled"),
		prewarms:       reg.Counter("platform.prewarms"),
		warmExpired:    reg.Counter("platform.warm_expired"),
		overheadMs:     reg.Histogram("platform.overhead_ms"),
		handlerMs:      reg.Histogram("platform.handler_ms"),
	}
}

// Object is an entry in the platform's object storage.
type Object struct {
	Bytes int64
	Data  any
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
		storage:  make(map[string]Object),
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

// FaultsAt resolves the fault profile in force at virtual time now,
// honouring the configured FaultSchedule. Controllers use it to learn the
// scheduled regime without re-deriving the schedule.
func (p *Platform) FaultsAt(now time.Duration) FaultProfile { return p.cfg.FaultsAt(now) }

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
		f.warm = f.warm[n:]
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

// Invocations returns the total number of completed invocations (including
// failed, evicted and throttled ones — the platform saw them all).
func (p *Platform) Invocations() int64 {
	return p.invoked
}

// Faulted returns the number of invocations that suffered an injected
// fault (failure, eviction or throttling).
func (p *Platform) Faulted() int64 {
	return p.faulted
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
// (its links and its billing accumulator), but never its Proc: that handle
// dies with the process running the handler (see simnet.Proc).
type Ctx struct {
	platform *Platform
	proc     *simnet.Proc
	fnName   string
	uplink   simnet.Resource
	downlink simnet.Resource
	span     *trace.Span // exec span of this invocation; nil when untraced
	start    time.Duration
	slow     float64 // straggler compute multiplier (1 = healthy)
	children int64   // billed ms accumulated from nested invocations
}

// Span returns this invocation's execution span (nil when the invocation is
// untraced). Handlers use it to attach child spans and events; nil receivers
// are safe everywhere in package trace, so handlers need no tracing check.
func (c *Ctx) Span() *trace.Span { return c.span }

// Platform returns the hosting platform.
func (c *Ctx) Platform() *Platform { return c.platform }

// Proc returns the simnet process executing this function. It is valid
// only while the handler runs.
func (c *Ctx) Proc() *simnet.Proc { return c.proc }

// FunctionName returns the name this instance serves.
func (c *Ctx) FunctionName() string { return c.fnName }

// MemoryMB returns the instance memory ceiling.
func (c *Ctx) MemoryMB() int { return c.platform.cfg.MemoryMB }

// Compute advances virtual time by the duration of flops floating-point
// operations at the platform's effective throughput, with multiplicative
// lognormal noise.
func (c *Ctx) Compute(flops int64) { c.ComputeOp(flops, 0) }

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

// Invoke synchronously invokes another function and waits for its result.
// On a failed invocation the returned InvokeResult is still populated with
// the billing the platform charged for the failed run.
func (c *Ctx) Invoke(name string, payload Payload) (InvokeResult, error) {
	return settled(c.InvokeAsync(name, payload).Wait(c.proc))
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

// InvokeAsync starts an invocation and returns a promise for its result.
// The request payload serializes on this instance's uplink and the response
// on its downlink, reproducing the synchronization overhead that makes very
// wide fan-outs counterproductive on Lambda (Fig. 7).
func (c *Ctx) InvokeAsync(name string, payload Payload) *simnet.Promise[InvokeResult] {
	pr, _ := c.InvokeAsyncSpan(name, payload, nil)
	return pr
}

// InvokeAsyncSpan is InvokeAsync with explicit trace parentage: the new
// invocation's span becomes a child of parent (or of this instance's own
// execution span when parent is nil) and is returned so the caller can attach
// attempt metadata.
func (c *Ctx) InvokeAsyncSpan(name string, payload Payload, parent *trace.Span) (*simnet.Promise[InvokeResult], *trace.Span) {
	if parent == nil {
		parent = c.span
	}
	return c.platform.invokeAsync(c, parent, name, payload)
}

// StorageGet fetches an object, charging storage latency plus transfer time.
func (c *Ctx) StorageGet(key string) (Object, error) {
	p := c.platform
	obj, ok := p.storage[key]
	if !ok {
		return Object{}, fmt.Errorf("platform: storage object %q not found", key)
	}
	c.proc.Sleep(msToDur(p.cfg.StorageLatencyMs + float64(obj.Bytes)/1e6/p.cfg.StorageMBps*1000))
	return obj, nil
}

// StoragePut uploads an object, charging storage latency plus transfer time.
func (c *Ctx) StoragePut(key string, obj Object) {
	p := c.platform
	c.proc.Sleep(msToDur(p.cfg.StorageLatencyMs + float64(obj.Bytes)/1e6/p.cfg.StorageMBps*1000))
	p.storage[key] = obj
}

// Seed stores an object directly (no simulated time), for experiment setup.
func (p *Platform) Seed(key string, obj Object) {
	p.storage[key] = obj
}

// InvokeFrom invokes a function from a plain simulation process (an external
// client): invocation overhead and payload transfer still apply, but no
// uplink serialization, since the client is not a constrained function.
func (p *Platform) InvokeFrom(proc *simnet.Proc, name string, payload Payload) (InvokeResult, error) {
	return p.InvokeFromSpan(proc, name, payload, nil)
}

// InvokeFromSpan is InvokeFrom with the invocation's span attached under
// parent (untraced when parent is nil).
func (p *Platform) InvokeFromSpan(proc *simnet.Proc, name string, payload Payload, parent *trace.Span) (InvokeResult, error) {
	pr, _ := p.invokeAsync(nil, parent, name, payload)
	return settled(pr.Wait(proc))
}

func (p *Platform) invokeAsync(from *Ctx, parent *trace.Span, name string, payload Payload) (*simnet.Promise[InvokeResult], *trace.Span) {
	var sp *trace.Span
	if parent != nil { // an untraced invocation builds no name
		sp = parent.Child(trace.KindInvoke, "invoke:"+name)
	}
	promise := simnet.NewPromise[InvokeResult](p.env)
	p.env.Go("invoke", func(proc *simnet.Proc) {
		res, err := p.runInvocation(proc, from, sp, name, payload)
		if err != nil {
			promise.Fail(err)
			return
		}
		promise.Resolve(res)
	})
	return promise, sp
}

func (p *Platform) runInvocation(proc *simnet.Proc, from *Ctx, sp *trace.Span, name string, payload Payload) (InvokeResult, error) {
	f, ok := p.fns[name]
	if !ok {
		err := fmt.Errorf("platform: invoke of unknown function %q", name)
		sp.Fail("", err.Error())
		sp.EndSpan()
		return InvokeResult{}, err
	}

	var res InvokeResult

	// Concurrency-limit admission: an invocation arriving while
	// MaxConcurrency others are in flight is rejected before any work —
	// no upload, no fault draws (the fault schedule of admitted
	// invocations is unperturbed), and nothing billed.
	if p.cfg.MaxConcurrency > 0 && f.running >= p.cfg.MaxConcurrency {
		p.invoked++
		p.faulted++
		p.m.invocations.Inc()
		p.m.faultThrottled.Inc()
		ierr := &InvokeError{Kind: FaultThrottled, Fn: name, Res: res}
		sp.SetBilled(0, 0)
		sp.Fail(FaultThrottled.String(), ierr.Error())
		sp.EndSpan()
		return res, ierr
	}
	f.running++

	// Request issuance + upload: function callers pay the per-request CPU
	// cost and serialize on their uplink; external clients only pay the
	// transfer.
	upMs := float64(payload.Bytes) / 1e6 / p.cfg.NetMBps * 1000
	before := proc.Now()
	usp := sp.Child(trace.KindUpload, "upload")
	if from != nil {
		from.uplink.Acquire(proc)
		proc.Sleep(msToDur(p.cfg.RequestOverheadMs + upMs))
		from.uplink.Release()
	} else {
		proc.Sleep(msToDur(upMs))
	}
	usp.EndSpan()
	res.UploadMs = durToMs(proc.Now() - before)

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
		f.running--
		p.invoked++
		p.faulted++
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

	ctx := &Ctx{
		platform: p,
		proc:     proc,
		fnName:   name,
		span:     sp.Child(trace.KindExec, "exec"),
		slow:     slow,
	}
	ctx.start = proc.Now()
	resp, herr := f.handler(ctx, payload)
	ctx.span.EndSpan()

	res.HandlerMs = durToMs(proc.Now() - ctx.start)
	res.BilledMs = Billed(res.HandlerMs, p.cfg.BillingGranMs)
	res.TotalBilledMs = res.BilledMs + ctx.children

	// Settle the invocation exactly once: the instance returns to the warm
	// pool (stamped with the current virtual time for idle expiry), and the
	// invocation counts (and bills) even if the handler failed.
	f.running--
	f.warm = append(f.warm, proc.Now())
	p.invoked++
	p.billedMs += res.BilledMs
	if crash {
		p.faulted++
	}

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
	before = proc.Now()
	wsp := sp.Child(trace.KindDownload, "download")
	if from != nil {
		from.downlink.Acquire(proc)
		proc.Sleep(msToDur(downMs))
		from.downlink.Release()
	} else {
		proc.Sleep(msToDur(downMs))
	}
	wsp.EndSpan()
	res.DownloadMs = durToMs(proc.Now() - before)
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
