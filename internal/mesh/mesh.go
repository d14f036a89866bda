// Package mesh is the multi-model serving layer: a catalog of partitioned
// models served from a shared pool of memory-bounded instances, in the
// style of ModelMesh's management SPI. Each catalog entry carries a
// predicted size (from the plan's transfer profile) and a measured size
// learned on first load; the placement layer routes each query to an
// instance already holding its model (cache hit) or loads the model —
// paying the object-storage fetch on the query's own virtual clock and
// billing warm-up through the platform's PrewarmMs machinery — evicting
// least-recently-used idle models under memory pressure.
//
// The mesh is simnet-clocked end to end: placement, eviction, and load
// decisions are pure functions of the virtual clock, the catalog order,
// and instance IDs, so a mesh-routed gateway replay is bit-for-bit
// reproducible at any host parallelism.
package mesh

import (
	"errors"
	"fmt"
	"time"

	"gillis/internal/gateway"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// ErrUnknownModel is reported when a query requests a model the catalog
// does not hold.
var ErrUnknownModel = errors.New("mesh: unknown model")

// ErrNoCapacity is reported when no instance can hold the requested model
// even after evicting every idle resident — the catalog entry is too big
// for the pool, or every byte is pinned by in-flight queries.
var ErrNoCapacity = errors.New("mesh: no instance capacity for model")

// ModelSpec is one catalog entry: a model's partitioned serving plan.
type ModelSpec struct {
	// ID is the catalog key queries route by. Must be unique and match the
	// plan's model name (function names derive from it).
	ID    string
	Units []*partition.Unit
	Plan  *partition.Plan
}

// Config sizes the serving pool.
type Config struct {
	// Instances is the pool size. Required (> 0).
	Instances int
	// InstanceMemMB is each instance's model-residency budget. Required
	// (> 0).
	InstanceMemMB int
	// MaxPerInstance caps concurrent serves per instance; a saturated
	// holder triggers a scale-out load of a second copy when memory
	// allows. Zero means unlimited concurrency.
	MaxPerInstance int
	// Mode is the deployments' execution mode (default ShapeOnly).
	Mode runtime.ExecMode
	// NoCache disables residency tracking entirely: every query pays a
	// full load. The baseline the LRU mesh is measured against.
	NoCache bool
}

// model is one catalog entry's serving state.
type model struct {
	spec ModelSpec
	dep  *runtime.Deployment
	// predicted is the catalog-time size estimate: the model's weights
	// plus the plan's transfer profile (worker shipments and activation
	// payloads), known before any load. measured is the exact
	// per-instance resident set (group extents times their partition
	// counts), learned when the first load completes; zero until then.
	predicted int64
	measured  int64

	hits, misses, loads, loadWaits, evictions int
	loadedBytes                               int64
	loadMsSum                                 float64

	// The model's own mesh.<name>.<ID> counters, resolved on first use (a
	// model that never hits, say, adds no zero-valued counter to the
	// registry's Summary). Like every mesh metric they live in the registry
	// the mesh was built with.
	cHits, cMisses, cLoads, cEvictions *trace.Counter
}

// residency is one model resident (or loading) on one instance.
type residency struct {
	bytes    int64
	lastUsed time.Duration
	serving  int
	loading  *simnet.Promise[struct{}]
}

// instance is one pool member.
type instance struct {
	id       int
	used     int64
	inFlight int
	resident map[string]*residency
}

// Mesh is the serving mesh. It implements gateway.Router (placement) and
// gateway.Backend (the anchor handed to gateway.Run for platform and
// warm-set observation; serving always goes through routed deployments).
type Mesh struct {
	p   *platform.Platform
	env *simnet.Env
	cfg Config
	reg *trace.Registry

	models map[string]*model
	order  []*model // catalog order
	insts  []*instance

	mHits, mMisses, mLoads, mLoadWaits, mEvictions *trace.Counter
	gResidentModels, gResidentBytes                *trace.Gauge
	hLoadMs                                        *trace.Histogram
}

// New deploys every catalog entry on the platform (registration only —
// nothing is resident until a query triggers a load) and returns the mesh.
func New(p *platform.Platform, cfg Config, specs []ModelSpec) (*Mesh, error) {
	if cfg.Instances <= 0 {
		return nil, fmt.Errorf("mesh: Instances must be positive, got %d", cfg.Instances)
	}
	if cfg.InstanceMemMB <= 0 {
		return nil, fmt.Errorf("mesh: InstanceMemMB must be positive, got %d", cfg.InstanceMemMB)
	}
	if cfg.Mode == 0 {
		cfg.Mode = runtime.ShapeOnly
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("mesh: empty catalog")
	}
	reg := p.Metrics()
	m := &Mesh{
		p:               p,
		env:             p.Env(),
		cfg:             cfg,
		reg:             reg,
		models:          make(map[string]*model, len(specs)),
		mHits:           reg.Counter("mesh.hits"),
		mMisses:         reg.Counter("mesh.misses"),
		mLoads:          reg.Counter("mesh.loads"),
		mLoadWaits:      reg.Counter("mesh.load_waits"),
		mEvictions:      reg.Counter("mesh.evictions"),
		gResidentModels: reg.Gauge("mesh.resident_models"),
		gResidentBytes:  reg.Gauge("mesh.resident_bytes"),
		hLoadMs:         reg.Histogram("mesh.load_ms"),
	}
	for _, spec := range specs {
		if spec.ID == "" {
			return nil, fmt.Errorf("mesh: catalog entry with empty ID")
		}
		if _, dup := m.models[spec.ID]; dup {
			return nil, fmt.Errorf("mesh: duplicate catalog entry %q", spec.ID)
		}
		dep, err := runtime.Deploy(p, spec.Units, spec.Plan, cfg.Mode)
		if err != nil {
			return nil, fmt.Errorf("mesh: deploy %s: %w", spec.ID, err)
		}
		// Predicted size: the model's weights plus the plan's transfer
		// profile (worker shipments and activation payloads) — everything
		// a load must pull through the network, known at catalog time. The
		// measured resident set replaces it after the first load.
		transfer, err := partition.TransferBytes(spec.Units, spec.Plan)
		if err != nil {
			return nil, fmt.Errorf("mesh: size %s: %w", spec.ID, err)
		}
		var params int64
		for _, u := range spec.Units {
			params += u.ParamBytes
		}
		mm := &model{spec: spec, dep: dep, predicted: params + transfer}
		m.models[spec.ID] = mm
		m.order = append(m.order, mm)
	}
	for i := 0; i < cfg.Instances; i++ {
		m.insts = append(m.insts, &instance{id: i, resident: make(map[string]*residency)})
	}
	return m, nil
}

// memBudget is an instance's residency budget in bytes.
func (m *Mesh) memBudget() int64 { return int64(m.cfg.InstanceMemMB) * 1e6 }

// Acquire implements gateway.Router: it resolves a model ID to a ready
// deployment, loading the model first on a cache miss (virtual time passes
// on proc) and waiting behind an in-progress load instead of duplicating
// it. Exactly one of hit/miss is counted per query.
func (m *Mesh) Acquire(proc *simnet.Proc, id string) (gateway.Backend, func(), error) {
	mm := m.models[id]
	if mm == nil {
		return nil, nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	if m.cfg.NoCache {
		return m.acquireNoCache(proc, mm)
	}
	counted := false
	for {
		// 1. An instance already holds the model with free concurrency:
		// cache hit.
		if inst := m.holder(mm.spec.ID, true); inst != nil {
			r := inst.resident[mm.spec.ID]
			r.serving++
			r.lastUsed = proc.Now()
			inst.inFlight++
			if !counted {
				m.countHit(mm)
			}
			return mm.dep, m.releaseFn(inst, mm.spec.ID), nil
		}
		// 2. Someone is already loading it: wait on their load rather than
		// fetching a duplicate copy.
		if pr := m.loading(mm.spec.ID); pr != nil {
			if !counted {
				mm.loadWaits++
				m.countMiss(mm)
				m.mLoadWaits.Inc()
				counted = true
			}
			if _, err := pr.Wait(proc); err != nil {
				return nil, nil, err
			}
			continue
		}
		// 3. Memory capacity somewhere: place and load (a saturated holder
		// elsewhere makes this a scale-out copy).
		if inst, r, pr := m.place(mm); inst != nil {
			if !counted {
				m.countMiss(mm)
				counted = true
			}
			if err := m.load(proc, mm, inst, r, pr); err != nil {
				return nil, nil, err
			}
			continue
		}
		// 4. No memory anywhere but a holder exists: route to the least
		// loaded holder past its concurrency cap rather than failing.
		if inst := m.holder(mm.spec.ID, false); inst != nil {
			r := inst.resident[mm.spec.ID]
			r.serving++
			r.lastUsed = proc.Now()
			inst.inFlight++
			if !counted {
				m.countHit(mm)
			}
			return mm.dep, m.releaseFn(inst, mm.spec.ID), nil
		}
		return nil, nil, fmt.Errorf("%w: %s needs %d MB", ErrNoCapacity, mm.spec.ID, mm.sizeHint()/1e6)
	}
}

// acquireNoCache is the load-every-query baseline: no residency, every
// query pays the full fetch and warm-up.
func (m *Mesh) acquireNoCache(proc *simnet.Proc, mm *model) (gateway.Backend, func(), error) {
	if mm.predicted > m.memBudget() {
		return nil, nil, fmt.Errorf("%w: %s needs %d MB", ErrNoCapacity, mm.spec.ID, mm.predicted/1e6)
	}
	// Least-loaded instance, lowest ID on ties.
	inst := m.insts[0]
	for _, cand := range m.insts[1:] {
		if cand.inFlight < inst.inFlight {
			inst = cand
		}
	}
	inst.inFlight++
	m.countMiss(mm)
	before := proc.Now()
	if err := m.fetchAndWarm(proc, mm); err != nil {
		inst.inFlight--
		return nil, nil, err
	}
	loadMs := durMs(proc.Now() - before)
	if mm.measured == 0 {
		mm.measured = measuredBytes(mm.spec)
	}
	mm.loads++
	mm.loadedBytes += mm.predicted
	mm.loadMsSum += loadMs
	m.mLoads.Inc()
	m.modelCounter(&mm.cLoads, "mesh.loads", mm).Inc()
	m.hLoadMs.Observe(loadMs)
	return mm.dep, m.releaseFn(inst, ""), nil
}

// holder returns the instance to serve a hit on: holds the model
// loaded (not mid-load), least in-flight, lowest ID on ties; nil when no
// holder qualifies. respectCap filters out instances at their concurrency
// cap.
func (m *Mesh) holder(id string, respectCap bool) *instance {
	var best *instance
	for _, inst := range m.insts {
		r := inst.resident[id]
		if r == nil || r.loading != nil {
			continue
		}
		if respectCap && m.cfg.MaxPerInstance > 0 && inst.inFlight >= m.cfg.MaxPerInstance {
			continue
		}
		if best == nil || inst.inFlight < best.inFlight {
			best = inst
		}
	}
	return best
}

// loading returns the promise of an in-progress load of the model,
// lowest instance ID first, or nil.
func (m *Mesh) loading(id string) *simnet.Promise[struct{}] {
	for _, inst := range m.insts {
		if r := inst.resident[id]; r != nil && r.loading != nil {
			return r.loading
		}
	}
	return nil
}

// sizeHint is the bytes a load reserves: the measured resident set once
// learned, the predicted transfer size before that.
func (mm *model) sizeHint() int64 {
	if mm.measured > 0 {
		return mm.measured
	}
	return mm.predicted
}

// place picks the instance to load the model onto: among instances
// not already holding it whose budget can fit it after evicting idle
// residents, the one with the most free bytes (fewest evictions), lowest
// ID on ties. It reserves the residency (so concurrent placements see the
// claim), evicting as needed, and returns the load promise. Returns nils
// when no instance can fit the model.
func (m *Mesh) place(mm *model) (*instance, *residency, *simnet.Promise[struct{}]) {
	size := mm.sizeHint()
	budget := m.memBudget()
	var best *instance
	for _, inst := range m.insts {
		if inst.resident[mm.spec.ID] != nil {
			continue
		}
		free := budget - inst.used
		evictable := int64(0)
		for _, r := range inst.resident {
			if r.serving == 0 && r.loading == nil {
				evictable += r.bytes
			}
		}
		if free+evictable < size {
			continue
		}
		if best == nil || budget-inst.used > budget-best.used {
			best = inst
		}
	}
	if best == nil {
		return nil, nil, nil
	}
	if !m.evict(best, size) {
		return nil, nil, nil
	}
	pr := simnet.NewPromise[struct{}](m.env)
	r := &residency{bytes: size, lastUsed: m.env.Now(), loading: pr}
	best.resident[mm.spec.ID] = r
	best.used += size
	return best, r, pr
}

// evict evicts idle residents of the instance, least recently used
// first (smallest catalog ID on recency ties), until need more bytes fit
// the budget. Reports whether it succeeded; on failure nothing further is
// evicted (partial evictions stand — they were the LRU tail anyway).
func (m *Mesh) evict(inst *instance, need int64) bool {
	budget := m.memBudget()
	for inst.used+need > budget {
		victimID := ""
		var victim *residency
		for id, r := range inst.resident {
			if r.serving > 0 || r.loading != nil {
				continue
			}
			if victim == nil || r.lastUsed < victim.lastUsed ||
				(r.lastUsed == victim.lastUsed && id < victimID) {
				victimID, victim = id, r
			}
		}
		if victim == nil {
			return false
		}
		delete(inst.resident, victimID)
		inst.used -= victim.bytes
		if vm := m.models[victimID]; vm != nil {
			vm.evictions++
			m.modelCounter(&vm.cEvictions, "mesh.evictions", vm).Inc()
		}
		m.mEvictions.Inc()
		m.setGauges()
	}
	return true
}

// load performs the reserved load on the query's process: fetch the model
// from object storage, warm the deployment (billed via PrewarmMs), then
// true up the reservation to the measured resident set — learning it on
// the first load — and publish the residency. Waiters blocked on the load
// promise resume when it resolves.
func (m *Mesh) load(proc *simnet.Proc, mm *model, inst *instance, r *residency, pr *simnet.Promise[struct{}]) error {
	before := proc.Now()
	err := m.fetchAndWarm(proc, mm)
	if err == nil && mm.measured == 0 {
		mm.measured = measuredBytes(mm.spec)
	}
	if err == nil && mm.measured != r.bytes {
		// The reservation was the predicted size; the measured resident
		// set replaces it. Growth can overflow the budget — evict idle
		// residents to absorb it, or fail the load if pinned bytes block.
		inst.used += mm.measured - r.bytes
		r.bytes = mm.measured
		if inst.used > m.memBudget() && !m.evict(inst, 0) {
			err = fmt.Errorf("%w: %s measured %d MB over the reservation",
				ErrNoCapacity, mm.spec.ID, mm.measured/1e6)
		}
	}
	if err != nil {
		delete(inst.resident, mm.spec.ID)
		inst.used -= r.bytes
		m.setGauges()
		pr.Fail(err)
		return err
	}
	r.loading = nil
	r.lastUsed = proc.Now()
	mm.loads++
	mm.loadedBytes += mm.predicted
	loadMs := durMs(proc.Now() - before)
	mm.loadMsSum += loadMs
	m.setGauges()
	m.mLoads.Inc()
	m.modelCounter(&mm.cLoads, "mesh.loads", mm).Inc()
	m.hLoadMs.Observe(loadMs)
	pr.Resolve(struct{}{})
	return nil
}

// fetchAndWarm pays a load's virtual time and billing: the object-storage
// fetch of the model's transfer bytes, then one warm instance set per
// function (billed at the platform's PrewarmMs like any autoscaler
// prewarm).
func (m *Mesh) fetchAndWarm(proc *simnet.Proc, mm *model) error {
	cfg := m.p.Config()
	ms := cfg.StorageLatencyMs + float64(mm.predicted)/1e6/cfg.StorageMBps*1000
	proc.Sleep(time.Duration(ms * float64(time.Millisecond)))
	return mm.dep.Prewarm()
}

// measuredBytes is the exact per-instance resident set of a plan: every
// group's extent (weights + activation working set) times its partition
// count — replication and halos included, which the predicted transfer
// size underestimates.
func measuredBytes(spec ModelSpec) int64 {
	var total int64
	for _, gp := range spec.Plan.Groups {
		ext, err := partition.GroupExtent(spec.Units, gp.First, gp.Last, gp.Option)
		if err != nil {
			// The plan deployed, so extents computed once already; treat a
			// late failure as the reservation being exact.
			return 0
		}
		total += ext.ResidentBytes(1) * int64(len(ext.PerPart))
	}
	return total
}

// releaseFn returns the query's release callback: it returns the
// concurrency slot and stamps the model's recency for LRU.
func (m *Mesh) releaseFn(inst *instance, id string) func() {
	released := false
	return func() {
		if released {
			return
		}
		released = true
		inst.inFlight--
		if r := inst.resident[id]; r != nil {
			r.serving--
			r.lastUsed = m.env.Now()
		}
	}
}

func (m *Mesh) countHit(mm *model) {
	mm.hits++
	m.mHits.Inc()
	m.modelCounter(&mm.cHits, "mesh.hits", mm).Inc()
}

func (m *Mesh) countMiss(mm *model) {
	mm.misses++
	m.mMisses.Inc()
	m.modelCounter(&mm.cMisses, "mesh.misses", mm).Inc()
}

// modelCounter returns the model's counter *c, resolving it to the counter
// named name.<ID> on first use.
func (m *Mesh) modelCounter(c **trace.Counter, name string, mm *model) *trace.Counter {
	if *c == nil {
		*c = m.reg.Counter(name + "." + mm.spec.ID)
	}
	return *c
}

// setGauges refreshes the residency gauges after any load or evict.
func (m *Mesh) setGauges() {
	var nmodels int
	var bytes int64
	for _, inst := range m.insts {
		for _, r := range inst.resident {
			if r.loading == nil {
				nmodels++
				bytes += r.bytes
			}
		}
	}
	at := durMs(m.env.Now())
	m.gResidentModels.Set(float64(nmodels), at)
	m.gResidentBytes.Set(float64(bytes), at)
}

// Platform implements gateway.Backend.
func (m *Mesh) Platform() *platform.Platform { return m.p }

// WarmSets implements gateway.Backend: warm instance sets standing by
// across the whole catalog.
func (m *Mesh) WarmSets() int {
	var n int
	for _, mm := range m.order {
		n += mm.dep.WarmSets()
	}
	return n
}

// ServeBatch implements gateway.Backend. The mesh never serves directly —
// queries must route through Acquire — so this is a configuration error.
func (m *Mesh) ServeBatch(*simnet.Proc, []*tensor.Tensor, int, bool) (runtime.Result, *trace.Trace, error) {
	return runtime.Result{}, nil, errors.New("mesh: serve through a multi-model gateway (Config.Model + Config.Router)")
}

// Prewarm implements gateway.Backend. Pool-level prewarming is
// per-model in a mesh (loads warm what they place), so a policy that
// prewarms through the mesh anchor is a configuration error.
func (m *Mesh) Prewarm() error {
	return errors.New("mesh: prewarming is per-model; use gateway.NonePolicy with a mesh backend")
}

// Deployment returns the catalog entry's deployment, for callers that
// serve outside the gateway (tests, the CLI's single-query path).
func (m *Mesh) Deployment(id string) (*runtime.Deployment, error) {
	mm := m.models[id]
	if mm == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownModel, id)
	}
	return mm.dep, nil
}

// Models returns the catalog IDs in catalog order.
func (m *Mesh) Models() []string {
	ids := make([]string, len(m.order))
	for i, mm := range m.order {
		ids[i] = mm.spec.ID
	}
	return ids
}

// durMs converts a virtual-clock duration to milliseconds.
func durMs(d time.Duration) float64 { return float64(d) / 1e6 }

// Statically assert the mesh satisfies the gateway's contracts.
var (
	_ gateway.Backend = (*Mesh)(nil)
	_ gateway.Router  = (*Mesh)(nil)
)
