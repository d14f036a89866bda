//go:build go1.23

// Package simnet is a deterministic discrete-event simulation kernel in the
// style of SimPy: processes are coroutines that park on a virtual clock, and
// Env.Run, on its caller's goroutine, advances time from event to event and
// resumes one process at a time. Ties are broken by event sequence number,
// so a simulation is exactly reproducible for a fixed seed of its random
// inputs.
//
// Nothing is synchronised because nothing is shared: an Env and everything
// hanging off it (Procs, Promises, Resources) is touched by the goroutine
// that will call Run until Run starts, and from then on only by the process
// Run has resumed.
// A process may block on real synchronisation of its own (a par.For join)
// but must not let another goroutine touch the Env. Between two Runs the Env
// may change hands, to one goroutine at a time, through something that
// orders the handover (a channel send and receive).
//
// The serverless platform simulator (package platform) and the fork-join
// serving runtime (package runtime) are built on this kernel.
package simnet

import (
	"errors"
	"fmt"
	"iter"
	"runtime"
	"time"
)

// Env is a simulation environment: a virtual clock plus an event queue.
type Env struct {
	now      time.Duration
	events   []event // binary min-heap on (at, seq)
	seq      int64
	stampSeq int64
	steps    int     // events popped plus sleeps continued in place (the Gosched cadence)
	parked   int     // processes parked on promises or resources (not only on the clock)
	idle     []*Proc // processes whose body returned, coroutine and all, ready for the next Go
}

// An event resumes proc, provided proc is still in the park the event was
// pushed for (see Proc.gen).
type event struct {
	at   time.Duration
	seq  int64
	proc *Proc
	gen  uint64
}

func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (e *Env) push(ev event) {
	e.seq++
	ev.seq = e.seq
	e.events = append(e.events, ev)
	h := e.events
	for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
}

func (e *Env) pop() event {
	h := e.events
	top, n := h[0], len(h)-1
	h[0], h[n] = h[n], event{} // zeroed so the spare capacity retains no process
	e.events = h[:n]
	for i := 0; ; {
		first := i
		for c := 2*i + 1; c <= 2*i+2 && c < n; c++ {
			if h[c].before(&h[first]) {
				first = c
			}
		}
		if first == i {
			return top
		}
		h[i], h[first] = h[first], h[i]
		i = first
	}
}

// NewEnv creates an empty simulation environment.
func NewEnv() *Env { return &Env{} }

// Now returns the current virtual time.
func (e *Env) Now() time.Duration { return e.now }

// Stamp returns the current virtual time together with a monotonically
// increasing sequence number that totally orders stamps taken at the same
// instant. Because at most one process executes at any instant, the
// sequence is deterministic for a fixed simulation; the tracing subsystem
// uses it to order same-time span boundaries reproducibly.
func (e *Env) Stamp() (time.Duration, int64) {
	e.stampSeq++
	return e.now, e.stampSeq
}

// Proc is the handle a running process uses to interact with the clock.
// A handle is dead once its body returns: the Proc, with its coroutine, goes
// to the Env's idle list and a later Go runs another body on it, so nothing
// may use a Proc after its body has returned — not a spawned process, a
// callback, nor a struct that outlives the body.
type Proc struct {
	env  *Env
	Name string
	// gen is the park generation. Every wake pushed for a park (a sleep's
	// timer, a promise's or a resource's waiter, a WaitTimeout's both)
	// carries the gen the process parked with; Run bumps gen when it resumes
	// the process, so whichever wake is popped first wins and the others no
	// longer match and are dropped. gen only ever grows, across the bodies a
	// recycled Proc runs too, so a wake that outlives its body stays stale.
	gen  uint64
	body func(*Proc)
	// The iter.Pull coroutine the Proc's bodies run on, one after another;
	// nil until its first resume.
	next  func() (struct{}, bool)
	stop  func()
	yield func(struct{}) bool
}

// Env returns the process's environment.
func (p *Proc) Env() *Env { return p.env }

// Now returns the current virtual time.
func (p *Proc) Now() time.Duration { return p.env.now }

// Go schedules fn as a new process starting at the current virtual time.
// It can be called before or between Runs, or from within a running process.
func (e *Env) Go(name string, fn func(*Proc)) { e.spawn(e.now, name, fn) }

// spawn queues fn as a process starting at virtual time at, on an idle Proc
// if there is one.
func (e *Env) spawn(at time.Duration, name string, fn func(*Proc)) {
	var p *Proc
	if n := len(e.idle); n > 0 {
		p = e.idle[n-1]
		e.idle = e.idle[:n-1]
	} else {
		p = &Proc{env: e}
	}
	p.Name, p.body = name, fn
	e.push(event{at: at, proc: p, gen: p.gen})
}

// park returns control to Run until a wake carrying p.gen is popped.
func (p *Proc) park() { p.yield(struct{}{}) }

// wake schedules w's process to resume now, if it is still in the park w
// was registered for.
func (e *Env) wake(w waiter) { e.push(event{at: e.now, proc: w.proc, gen: w.gen}) }

// Sleep parks the process for d of virtual time. Negative durations are
// treated as zero.
func (p *Proc) Sleep(d time.Duration) {
	if d < 0 {
		d = 0
	}
	e := p.env
	at := e.now + d
	if len(e.events) > 0 && e.events[0].at <= at {
		e.push(event{at: at, proc: p, gen: p.gen})
		p.park()
		return
	}
	// Direct continuation: nothing queued comes before the wake (on a tie
	// the queued event's smaller seq would), so the wake is the very next
	// event Run would pop. Take it in place — the seq the push would have
	// taken, the clock, the gen bump, the cadence step — and skip the push,
	// the pop and two coroutine switches. The event order is unchanged.
	e.seq++
	e.now = at
	p.gen++
	e.step()
}

// step counts one event towards the scheduler pass Run offers every 1024.
// Coroutine switches bypass the scheduler, so nothing here would offer this
// P to the collector's mark workers short of the 10 ms preemption: marks ran
// 3x longer and peak RSS rose a fifth. Sleeps continued in place count too,
// or a lone sleeper would never let the collector in.
func (e *Env) step() {
	if e.steps++; e.steps%1024 == 0 {
		runtime.Gosched()
	}
}

// Run executes the simulation until no events remain. It returns an error if
// processes remain parked on unresolved promises when the event queue drains
// (a deadlock). A panic in a process surfaces here.
//
// Run may be called again once it has returned, after Go has queued more
// work: the later Run continues from the clock, the event sequence and the
// Stamp sequence where the last drain stopped. Each drain stops the
// coroutines of the processes that finished, so an Env between Runs holds no
// goroutine but those of processes still parked.
func (e *Env) Run() error {
	defer func() {
		for _, p := range e.idle {
			p.stop()
		}
		e.idle = nil
	}()
	for len(e.events) > 0 {
		e.step()
		ev := e.pop()
		e.now = ev.at
		if p := ev.proc; p.gen == ev.gen {
			p.gen++
			if p.next == nil {
				e.start(p)
			}
			p.next()
		}
	}
	if e.parked > 0 {
		return fmt.Errorf("simnet: deadlock: %d process(es) parked on unresolved promises", e.parked)
	}
	return nil
}

// start gives a new Proc its coroutine on its first resume. The coroutine
// then runs every body the Proc is recycled for: a body started on a reused
// Proc finds the stack its predecessors grew, where on a fresh one it pays
// iter.Pull's allocations and newstack/copystack on its way down into the
// platform and runtime (a third more wall-clock per replay).
func (e *Env) start(p *Proc) {
	p.next, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		for {
			p.body(p)
			// Stale timers may hold p long after this; they should not
			// hold the body's captures.
			p.body = nil
			e.idle = append(e.idle, p)
			if !yield(struct{}{}) {
				return
			}
		}
	})
}

// Promise is a single-assignment value processes can wait on.
type Promise[T any] struct {
	env      *Env
	resolved bool
	value    T
	err      error
	// Woken by zero-delay events on resolution, in the order they parked.
	// Most promises have one waiter, which is kept inline.
	first waiter
	more  []waiter
}

type waiter struct {
	proc *Proc
	gen  uint64
}

// NewPromise creates an unresolved promise in the environment.
func NewPromise[T any](env *Env) *Promise[T] { return &Promise[T]{env: env} }

// Reset makes pr an unresolved promise in env, as NewPromise would: a
// promise embedded in a recycled record is reset when the record is reused.
// Nothing may wait on pr, or read it through an earlier Wait or Poll, once
// it is reset.
func (pr *Promise[T]) Reset(env *Env) { *pr = Promise[T]{env: env} }

// Resolve fulfills the promise and wakes all waiters at the current virtual
// time. Resolving twice panics: it indicates a protocol bug.
func (pr *Promise[T]) Resolve(v T) {
	if !pr.tryComplete(v, nil) {
		panic("simnet: promise resolved twice")
	}
}

// Fail completes the promise with an error.
func (pr *Promise[T]) Fail(err error) {
	if !pr.tryComplete(*new(T), err) {
		panic("simnet: promise resolved twice")
	}
}

// TryResolve fulfills the promise if it has not completed yet, reporting
// whether this call won. Use it for first-wins races (e.g. hedged requests)
// where several processes may legitimately attempt to complete the same
// promise.
func (pr *Promise[T]) TryResolve(v T) bool { return pr.tryComplete(v, nil) }

// TryFail completes the promise with an error if it has not completed yet,
// reporting whether this call won.
func (pr *Promise[T]) TryFail(err error) bool { return pr.tryComplete(*new(T), err) }

func (pr *Promise[T]) tryComplete(v T, err error) bool {
	if pr.resolved {
		return false
	}
	pr.resolved = true
	pr.value, pr.err = v, err
	if pr.first.proc != nil {
		pr.env.wake(pr.first)
	}
	for _, w := range pr.more {
		pr.env.wake(w)
	}
	pr.first, pr.more = waiter{}, nil
	return true
}

// Poll reports, without blocking, whether the promise has completed, and
// returns its value and error when it has.
func (pr *Promise[T]) Poll() (v T, err error, ok bool) {
	return pr.value, pr.err, pr.resolved
}

// Wait parks the process until the promise resolves and returns its value.
func (pr *Promise[T]) Wait(p *Proc) (T, error) {
	if !pr.resolved {
		pr.parkOn(p)
	}
	return pr.value, pr.err
}

func (pr *Promise[T]) parkOn(p *Proc) {
	if pr.first.proc == nil {
		pr.first = waiter{p, p.gen}
	} else {
		pr.more = append(pr.more, waiter{p, p.gen})
	}
	pr.env.parked++
	p.park()
	pr.env.parked--
}

// ErrTimeout is returned by WaitTimeout when the deadline elapses before the
// promise completes.
var ErrTimeout = errors.New("simnet: wait deadline exceeded")

// WaitTimeout parks the process until the promise completes or d of virtual
// time elapses, whichever comes first. On completion it behaves like Wait;
// on timeout it returns ErrTimeout. The promise itself is unaffected — it
// may still complete later, and other waiters (or a later Wait) observe its
// value as usual. A non-positive d times out immediately unless the promise
// has already completed. The serving runtime's hedge point builds on this
// primitive.
func (pr *Promise[T]) WaitTimeout(p *Proc, d time.Duration) (T, error) {
	if !pr.resolved && d > 0 {
		// The waiter and the timer carry the same gen: the first popped
		// resumes the process, the other is dropped as stale. The timer is
		// never removed, so it still advances the clock when it is popped.
		pr.env.push(event{at: pr.env.now + d, proc: p, gen: p.gen})
		pr.parkOn(p)
	}
	if !pr.resolved {
		return *new(T), ErrTimeout
	}
	return pr.value, pr.err
}

// Resource is a FIFO-ordered exclusive resource (capacity 1), used to model
// serialized links such as a function's network uplink. The zero value is
// an idle resource. Its waiter queue keeps one backing array for life, so
// a busy period's waiters allocate nothing once it has grown.
type Resource struct {
	busy  bool
	queue []waiter
}

// Acquire parks the process until it holds the resource.
func (r *Resource) Acquire(p *Proc) {
	if !r.busy {
		r.busy = true
		return
	}
	if r.queue == nil {
		// A fan-out queues its invocations on one link: make room for a
		// few at once rather than growing one at a time.
		r.queue = make([]waiter, 0, 4)
	}
	r.queue = append(r.queue, waiter{p, p.gen})
	p.env.parked++
	p.park()
	p.env.parked--
}

// Release hands the resource to the next waiter, if any, with a zero-delay
// wake.
func (r *Resource) Release() {
	if len(r.queue) == 0 {
		r.busy = false
		return
	}
	next := r.queue[0]
	n := copy(r.queue, r.queue[1:])
	r.queue[n] = waiter{} // the backing array must not keep a served process
	r.queue = r.queue[:n]
	next.proc.env.wake(next)
}
