// Package gateway is the serving front door for a deployment: it replays a
// workload arrival trace against the simulated platform, admitting queries
// into a bounded FIFO queue, running up to MaxInFlight concurrent
// fork-join passes (each on its own simnet process), and shedding
// load once the queue is full — the transient-burst regime §II-A of the
// Gillis paper motivates serverless serving with.
//
// The gateway is simnet-clocked end to end: for a fixed arrival trace,
// platform seed, and policy, a replay is bit-for-bit reproducible, at any
// host kernel parallelism. An optional autoscaling Policy observes the
// gateway each control tick and prewarms warm instance sets ahead of
// demand; prewarming costs real billed milliseconds when the platform
// charges for it (Config.PrewarmMs), so policies trade SLO attainment
// against cost inflation rather than getting warmth for free.
package gateway

import (
	"errors"
	"fmt"
	"time"

	"gillis/internal/batching"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// ErrShed is reported for queries rejected at admission because the wait
// queue was full.
var ErrShed = errors.New("gateway: queue full, query shed")

// Config parameterizes a gateway replay.
type Config struct {
	// MaxInFlight caps concurrent Serve calls. Required (> 0).
	MaxInFlight int
	// QueueCap bounds the FIFO wait queue; arrivals past it are shed.
	// Zero means no waiting room: a query either starts or is shed.
	QueueCap int
	// SLOMs is the per-query latency deadline in milliseconds, measured
	// from arrival to settle (queue wait included) — the same latency SLO
	// the core/sloaware planner targets as tmax. Zero disables SLO
	// accounting: every successfully served query attains.
	SLOMs float64
	// Traced serves every query with tracing on and retains the trace on
	// its Outcome.
	Traced bool
	// Input supplies the i-th query's input tensor (Real-mode
	// deployments). Nil serves every query with a nil input (ShapeOnly).
	Input func(i int) *tensor.Tensor
	// Policy is the autoscaler (default NonePolicy).
	Policy Policy
	// Window sizes the sliding last-N-settles window behind the windowed
	// report fields and ControlObservation (default 50).
	Window int
	// Controller, when set, closes the adaptive loop: it is ticked every
	// control tick with a ControlObservation and its directives (plan
	// switches, brownout) are applied before autoscaling. Nil leaves the
	// replay's platform actions exactly as without a controller.
	Controller Controller
	// Batch sizes the admission unit — the queries that take one admission
	// slot and ride one fork-join pass together. With Batch.MaxBatch >= 2
	// arrivals form batches that close on size, delay, SLO deadline, or
	// trace drain; with MaxBatch <= 1 every arrival is a unit of one, closed
	// the instant it arrives. Batch.SLOMs defaults to the gateway's SLOMs;
	// the former runs on the gateway's control tick (batching.TickMs).
	Batch batching.Config
	// Model tags the i-th arrival with the catalog model it requests, and
	// Router resolves that tag to a serving backend at serve time — the
	// multi-model mesh path. Both must be set together (and cannot combine
	// with batching, which forms single-model batches). Nil leaves the
	// single-backend path bit-identical to a gateway without a mesh.
	Model  func(i int) string
	Router Router
}

func (c Config) withDefaults() Config {
	if c.Policy == nil {
		c.Policy = NonePolicy{}
	}
	if c.Window <= 0 {
		c.Window = 50
	}
	return c
}

// Outcome records one query's fate.
type Outcome struct {
	// ID is the query's index in the arrival trace.
	ID int
	// Model is the catalog model the query requested (multi-model replays
	// only; empty on the single-model path).
	Model string `json:",omitempty"`
	// ArrivalMs is the arrival time on the virtual clock.
	ArrivalMs float64
	// QueueMs is the time spent waiting for a serving slot.
	QueueMs float64
	// LatencyMs is the serve latency (the master function's duration);
	// zero for shed queries.
	LatencyMs float64
	// TotalMs is arrival-to-settle: queue wait plus the full client-side
	// serve (upload, retries, download).
	TotalMs float64
	// BilledMs is the query's billed function time (master + workers).
	BilledMs int64
	// ColdStart reports whether the master cold-started.
	ColdStart bool
	// Shed reports the query was rejected at admission (Err is ErrShed's
	// message).
	Shed bool
	// Err is the terminal serve error, empty on success.
	Err string
	// SLOOK reports the query was served successfully within Config.SLOMs.
	SLOOK bool
	// BatchSize is the size of the admission unit the query rode in: 1
	// unless Config.Batch forms batches, and at least 1 for every settled
	// query, shed and faulted ones included.
	BatchSize int
	// FaultKind is the typed platform fault kind behind Err ("failure",
	// "evicted"), "placement" for multi-model
	// queries the Router could not place, "other" for untyped terminal
	// errors, and empty for served or shed queries.
	FaultKind string
	// Output is the inference result (Real mode only).
	Output *tensor.Tensor
	// Trace is the query's span tree (Config.Traced only; nil for shed
	// queries, which never reach the platform).
	Trace *trace.Trace
}

// gateway is the per-replay state. Every process that touches it is a simnet
// coroutine resumed one at a time on Env.Run's goroutine, so it has one
// owner and takes no lock (DESIGN §3); `make race` is what notices a process
// leaving that goroutine.
type gateway struct {
	b   Backend
	cfg Config
	reg *trace.Registry

	started  int // queries launched so far (nextQuery's index)
	inFlight int
	queue    []*simnet.Promise[struct{}]
	waits    []*simnet.Promise[struct{}] // queue entries served and waited on, for reuse
	maxQueue int
	done     int
	total    int
	outcomes []Outcome
	scaleErr error

	// Faulted settles by kind (for the report) and the sliding window (for
	// the controller), maintained incrementally.
	faultKinds map[string]int
	window     []windowEntry

	// Per-model settle classification (multi-model replays only).
	byModel map[string]*ModelStats

	// Brownout episode state (written only by the autoscale process).
	brownout      bool
	brownoutSince time.Duration
	brownoutMs    float64
	brownoutSheds int
	planSwitches  int

	// Batch-forming state (nil/zero when Config.Batch.MaxBatch <= 1). Every
	// started query enters the former at once, so started tells the drain
	// rule when no future query can top a batch up; waiters maps a forming
	// member's query ID to the promise its process blocks on.
	former       *batching.Former
	waiters      map[int]*simnet.Promise[batchAssign]
	batches      int
	batchSizeSum int
	batchClosed  map[string]int

	mQueries, mAdmitted, mShed, mServed, mFaulted *trace.Counter
	mSLOOK, mSLOViolated, mColdStarts             *trace.Counter
	mPlanSwitches, mBrownouts, mBrownoutShed      *trace.Counter
	mBatches                                      *trace.Counter
	hQueueDepth, hQueueWaitMs, hTotalMs           *trace.Histogram
	hBatchSize                                    *trace.Histogram
}

// Run replays the arrival trace (strictly increasing offsets, as produced
// by package workload) against the backend — a plain deployment, or a
// runtime.Switcher when an adaptive controller swaps plans — and drains the
// simulation. It returns the aggregate LoadReport alongside every query's
// Outcome, indexed by arrival order.
func Run(b Backend, arrivals []time.Duration, cfg Config) (*LoadReport, []Outcome, error) {
	if cfg.MaxInFlight <= 0 {
		return nil, nil, fmt.Errorf("gateway: MaxInFlight must be positive, got %d", cfg.MaxInFlight)
	}
	if cfg.QueueCap < 0 {
		return nil, nil, fmt.Errorf("gateway: QueueCap must be non-negative, got %d", cfg.QueueCap)
	}
	if (cfg.Model == nil) != (cfg.Router == nil) {
		return nil, nil, fmt.Errorf("gateway: Model and Router must be set together")
	}
	if cfg.Router != nil && cfg.Batch.MaxBatch >= 2 {
		return nil, nil, fmt.Errorf("gateway: multi-model routing cannot combine with batching")
	}
	cfg = cfg.withDefaults()
	p := b.Platform()
	reg := p.Metrics()
	g := &gateway{
		b:             b,
		cfg:           cfg,
		reg:           reg,
		total:         len(arrivals),
		outcomes:      make([]Outcome, len(arrivals)),
		faultKinds:    make(map[string]int),
		window:        make([]windowEntry, 0, min(cfg.Window, len(arrivals))),
		mQueries:      reg.Counter("gateway.queries"),
		mAdmitted:     reg.Counter("gateway.admitted"),
		mShed:         reg.Counter("gateway.shed"),
		mServed:       reg.Counter("gateway.served"),
		mFaulted:      reg.Counter("gateway.faulted"),
		mSLOOK:        reg.Counter("gateway.slo_attained"),
		mSLOViolated:  reg.Counter("gateway.slo_violated"),
		mColdStarts:   reg.Counter("gateway.cold_starts"),
		mPlanSwitches: reg.Counter("gateway.plan_switches"),
		mBrownouts:    reg.Counter("gateway.brownouts"),
		mBrownoutShed: reg.Counter("gateway.brownout_shed"),
		hQueueDepth:   reg.Histogram("gateway.queue_depth"),
		hQueueWaitMs:  reg.Histogram("gateway.queue_wait_ms"),
		hTotalMs:      reg.Histogram("gateway.total_ms"),
	}

	if err := g.setupBatching(cfg); err != nil {
		return nil, nil, err
	}

	billed0 := p.BilledMsTotal()
	prewarm0 := p.PrewarmBilledMs()
	env := p.Env()

	// The dispatcher walks the trace on the virtual clock and launches one
	// process per query at its arrival instant.
	env.Go("gateway-dispatch", func(proc *simnet.Proc) {
		next := g.nextQuery
		for _, at := range arrivals {
			proc.Sleep(at - proc.Now())
			env.Go("query", next)
		}
	})
	// With nothing to read its ticks, the control loop would only poll the
	// warm pools and sleep; a process that only reads leaves every other
	// event's order as it was, so it is not scheduled at all.
	if _, none := cfg.Policy.(NonePolicy); !none || g.former != nil || cfg.Controller != nil {
		env.Go("gateway-autoscale", g.autoscale)
	}
	if err := env.Run(); err != nil {
		return nil, nil, err
	}
	if g.scaleErr != nil {
		return nil, nil, g.scaleErr
	}
	rep := g.report(p.BilledMsTotal()-billed0, p.PrewarmBilledMs()-prewarm0)
	return rep, g.outcomes, nil
}

// nextQuery runs the next arrival. Queries start in the order they were
// launched, which is arrival order, so a counter names each one's index.
func (g *gateway) nextQuery(proc *simnet.Proc) {
	i := g.started
	g.started++
	g.query(proc, i)
}

// query runs one arrival. It is an admission unit of one, closed the instant
// it arrives, unless a batch former merges it into a larger unit; the process
// that leads a unit admits it, serves it, settles every member and hands the
// admission slot on.
func (g *gateway) query(proc *simnet.Proc, i int) {
	g.mQueries.Inc()
	unit := []batching.Member{{ID: i, Arrival: proc.Now()}}
	if g.former != nil {
		if unit = g.formBatch(proc, unit[0]); unit == nil {
			return // another member leads the batch and settles this query
		}
		defer g.releaseWaiters(unit, i)
	}
	if g.admit(proc, unit) {
		g.serve(proc, unit)
		g.release()
	}
}

// admit takes one admission slot for the whole unit: start immediately, wait
// in the FIFO queue, or shed. It reports whether the unit holds a slot;
// otherwise every member has been settled.
func (g *gateway) admit(proc *simnet.Proc, unit []batching.Member) bool {
	n := len(unit)
	switch {
	case g.inFlight < g.cfg.MaxInFlight:
		g.inFlight++
		g.hQueueDepth.Observe(float64(len(g.queue)))
	case g.brownout:
		// Brownout: the queue is closed. A unit that cannot start immediately
		// is shed with the typed brownout error; entries already queued keep
		// their place.
		g.brownoutSheds += n
		g.hQueueDepth.Observe(float64(len(g.queue)))
		g.mBrownoutShed.Add(int64(n))
		g.shedUnit(unit, ErrBrownout)
		return false
	case len(g.queue) < g.cfg.QueueCap:
		var pr *simnet.Promise[struct{}]
		if n := len(g.waits); n > 0 {
			pr = g.waits[n-1]
			g.waits = g.waits[:n-1]
			pr.Reset(proc.Env())
		} else {
			pr = simnet.NewPromise[struct{}](proc.Env())
		}
		g.queue = append(g.queue, pr)
		if len(g.queue) > g.maxQueue {
			g.maxQueue = len(g.queue)
		}
		g.hQueueDepth.Observe(float64(len(g.queue)))
		// A finishing unit hands its slot to the queue head directly, so
		// resolution implies the in-flight accounting already covers us.
		_, err := pr.Wait(proc)
		g.waits = append(g.waits, pr) // its resolver and this wait were its only readers
		if err != nil {
			for _, m := range unit {
				g.settle(Outcome{ID: m.ID, ArrivalMs: durMs(m.Arrival), BatchSize: n, Err: err.Error()})
			}
			return false
		}
	default:
		g.hQueueDepth.Observe(float64(len(g.queue)))
		g.shedUnit(unit, ErrShed)
		return false
	}
	g.mAdmitted.Add(int64(n))
	return true
}

// release gives up an admission slot: it goes to the queue head if anyone is
// waiting.
func (g *gateway) release() {
	if len(g.queue) > 0 {
		head := g.queue[0]
		n := copy(g.queue, g.queue[1:]) // copied down: the queue keeps one backing array
		g.queue[n] = nil                // which must not keep a served promise
		g.queue = g.queue[:n]
		head.Resolve(struct{}{})
	} else {
		g.inFlight--
	}
}

// shedUnit rejects every member of a unit that found no slot and no queue
// room.
func (g *gateway) shedUnit(unit []batching.Member, cause error) {
	n := len(unit)
	g.mShed.Add(int64(n))
	g.mSLOViolated.Add(int64(n))
	for _, m := range unit {
		g.settle(Outcome{ID: m.ID, ArrivalMs: durMs(m.Arrival), BatchSize: n, Shed: true, Err: cause.Error()})
	}
}

// route resolves the backend that serves query i: the replay's own, or on
// the multi-model path whatever the Router places the query's model on — a
// cache miss loads the model on this query's process, so the load time lands
// in TotalMs (and counts against the SLO) but not in LatencyMs.
func (g *gateway) route(proc *simnet.Proc, i int) (Backend, Lease, error) {
	if g.cfg.Router == nil {
		return g.b, noLease{}, nil
	}
	return g.cfg.Router.Acquire(proc, g.cfg.Model(i))
}

// serve runs one admitted unit through a single fork-join pass and settles
// a typed Outcome per member: each member keeps its own arrival, queue wait
// (unit forming plus slot wait), and SLO verdict; the serve latency and
// trace are shared; the billed time splits evenly with the remainder going
// to the earliest members so the per-query sum reconciles with the pass; a
// cold start is attributed to the first member only.
func (g *gateway) serve(proc *simnet.Proc, unit []batching.Member) {
	n := len(unit)
	startMs := durMs(proc.Now())
	var (
		res       runtime.Result
		tr        *trace.Trace
		billed    int64
		faultKind string
	)
	backend, lease, err := g.route(proc, unit[0].ID)
	if err != nil {
		faultKind = "placement"
	} else {
		var inputs []*tensor.Tensor
		if g.cfg.Input != nil {
			inputs = make([]*tensor.Tensor, n)
			for k, m := range unit {
				inputs[k] = g.cfg.Input(m.ID)
			}
		}
		res, tr, err = backend.ServeBatch(proc, inputs, n, g.cfg.Traced)
		lease.Release()
		billed = res.BilledMs
		if err != nil {
			billed = platform.BilledMsOf(err)
			faultKind = "other"
			if k, ok := platform.FaultKindOf(err); ok {
				faultKind = k.String()
			}
		}
	}
	endMs := durMs(proc.Now())

	base, rem := billed/int64(n), billed%int64(n)
	for k, m := range unit {
		o := Outcome{
			ID:        m.ID,
			ArrivalMs: durMs(m.Arrival),
			QueueMs:   startMs - durMs(m.Arrival),
			TotalMs:   endMs - durMs(m.Arrival),
			BilledMs:  base,
			BatchSize: n,
			Trace:     tr,
		}
		if int64(k) < rem {
			o.BilledMs++
		}
		g.hQueueWaitMs.Observe(o.QueueMs)
		g.hTotalMs.Observe(o.TotalMs)
		if err != nil {
			o.Err = err.Error()
			o.FaultKind = faultKind
			g.mFaulted.Inc()
			g.mSLOViolated.Inc()
			g.reg.Counter("gateway.faults." + faultKind).Inc()
		} else {
			o.LatencyMs = res.LatencyMs
			if k == 0 && res.ColdStart {
				o.ColdStart = true
				g.mColdStarts.Inc()
			}
			if res.Outputs != nil {
				o.Output = res.Outputs[k]
			}
			o.SLOOK = g.cfg.SLOMs <= 0 || o.TotalMs <= g.cfg.SLOMs
			g.mServed.Inc()
			if o.SLOOK {
				g.mSLOOK.Inc()
			} else {
				g.mSLOViolated.Inc()
			}
		}
		g.settle(o)
	}
}

// settle tags the outcome with the query's catalog model, records it,
// classifies it into the cumulative and windowed aggregates, and counts the
// query done (the autoscaler's exit condition).
func (g *gateway) settle(o Outcome) {
	if g.cfg.Model != nil {
		o.Model = g.cfg.Model(o.ID)
	}
	e := windowEntry{sloOK: o.SLOOK, totalMs: o.TotalMs}
	g.outcomes[o.ID] = o
	g.done++
	switch {
	case o.Shed: // neither served nor faulted
	case o.Err != "":
		e.faulted = true
		kind := o.FaultKind
		if kind == "" {
			kind = "other"
		}
		g.faultKinds[kind]++
	default:
		e.served = true
	}
	if o.Model != "" {
		if g.byModel == nil {
			g.byModel = make(map[string]*ModelStats)
		}
		ms := g.byModel[o.Model]
		if ms == nil {
			ms = &ModelStats{}
			g.byModel[o.Model] = ms
		}
		switch {
		case o.Shed:
			ms.Shed++
		case o.Err != "":
			ms.Faulted++
		default:
			ms.Served++
		}
		if !o.SLOOK {
			ms.SLOMiss++
		}
	}
	g.recordWindow(e)
}

// autoscale runs the control loop: each tick it observes the gateway,
// asks the policy for a warm-set target, and prewarms the difference. It
// exits once every query has settled so the simulation can drain.
func (g *gateway) autoscale(proc *simnet.Proc) {
	const tick = batching.TickMs * time.Millisecond
	for {
		obs := Observation{
			InFlight: g.inFlight,
			QueueLen: len(g.queue),
			Done:     g.done,
			Total:    g.total,
		}
		if obs.Done >= obs.Total {
			// Close any still-open brownout episode so the report's
			// accumulated duration covers it.
			if g.brownout {
				g.setBrownout(proc, false)
			}
			return
		}
		// Tick-driven batch closes fire first (the SLO rule budgets one
		// tick of lead time), then the adaptive controller, so autoscaling
		// targets the plan (and admission mode) its directive selects.
		g.batchTick(proc)
		g.controlTick(proc, obs)
		if g.scaleErr != nil {
			return
		}
		obs.WarmSets = g.b.WarmSets()
		target := g.cfg.Policy.Target(proc.Now(), obs)
		// Busy instances return to the pool when they finish, so the
		// standing capacity is warm sets plus in-flight queries; only the
		// shortfall needs new instances.
		for have := obs.WarmSets + obs.InFlight; have < target; have++ {
			if err := g.b.Prewarm(); err != nil {
				g.scaleErr = fmt.Errorf("gateway: prewarm: %w", err)
				return
			}
		}
		proc.Sleep(tick)
	}
}

// durMs converts a virtual-clock duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }
