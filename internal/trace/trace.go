// Package trace is Gillis's query-level tracing subsystem: a deterministic,
// allocation-light span/event tree recorded against the simulation's virtual
// clock, plus a concurrent metrics registry (see metrics.go) aggregated
// across queries.
//
// A Trace is a tree of Spans rooted at the query. The platform records one
// span per invocation (with upload/dispatch/cold-start/exec/download
// children), the serving runtime adds fork-join structure (groups, worker
// calls, attempts, fallbacks) and resilience events (retries, hedges), and
// the nn layer contributes per-operator kernel events. Because the
// simulation is deterministic, a trace is a reproducible artifact: the same
// seed yields byte-identical serializations, which the golden-trace tests
// pin.
//
// Every method is safe on a nil *Trace or nil *Span and does nothing, so
// tracing threads through hot paths at the cost of a single nil check when
// disabled.
package trace

import (
	"fmt"
	"time"
)

// Clock supplies virtual-time stamps: the current time plus a monotonically
// increasing sequence number that totally orders stamps taken at the same
// instant. simnet's Env.Stamp satisfies it.
type Clock func() (now time.Duration, seq int64)

// Kind classifies a span.
type Kind uint8

// Span kinds.
const (
	// KindQuery is the root span of one served query.
	KindQuery Kind = iota + 1
	// KindInvoke covers one platform invocation from dispatch to settle.
	KindInvoke
	// KindUpload is the request payload transfer (caller uplink).
	KindUpload
	// KindDispatch is the platform's invocation dispatch overhead.
	KindDispatch
	// KindColdStart is the instance cold-start penalty.
	KindColdStart
	// KindExec is the handler's execution on its instance.
	KindExec
	// KindDownload is the response payload transfer (caller downlink).
	KindDownload
	// KindGroup is one fork-join round of the serving runtime.
	KindGroup
	// KindCompute is local (master- or fallback-side) kernel execution.
	KindCompute
	// KindCall is one worker call including its full retry/hedge budget.
	KindCall
	// KindAttempt is a single invocation attempt within a call.
	KindAttempt
	// KindFallback is the master-local graceful-degradation path.
	KindFallback
	// KindFetch is an object-storage fetch of a group's weights.
	KindFetch
)

var kindNames = [...]string{
	KindQuery:     "query",
	KindInvoke:    "invoke",
	KindUpload:    "upload",
	KindDispatch:  "dispatch",
	KindColdStart: "coldstart",
	KindExec:      "exec",
	KindDownload:  "download",
	KindGroup:     "group",
	KindCompute:   "compute",
	KindCall:      "call",
	KindAttempt:   "attempt",
	KindFallback:  "fallback",
	KindFetch:     "fetch",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Attr is one key-value annotation on a span or event.
type Attr struct {
	Key, Val string
}

// Event is an instantaneous marker within a span (a retry, a hedge firing,
// a kernel op execution).
type Event struct {
	Name  string
	At    time.Duration
	Seq   int64
	Attrs []Attr
}

// Span is one timed interval of a query. Fields are written by the
// simulation's goroutine while it runs; read them from that goroutine, or
// from any other once the simulation has drained (simnet.Env.Run returned).
type Span struct {
	tr *Trace

	// ID is the span's creation index within its trace; Parent is the
	// parent's ID (-1 for the root). Creation order is deterministic
	// because at most one simulation process executes at a time.
	ID     int
	Parent int
	Kind   Kind
	Name   string

	// Start/End are virtual times; the Seq twins order same-instant stamps.
	Start, End       time.Duration
	StartSeq, EndSeq int64
	ended            bool

	// BilledMs is the billed duration attributed to this span itself (only
	// invocation spans carry billing); TotalBilledMs adds nested
	// invocations, as reported by the platform at settle time.
	BilledMs      int64
	TotalBilledMs int64

	// Err is the failure message for a failed span ("" = ok); Fault is the
	// typed platform fault kind ("failure" or "evicted") when the
	// failure was an InvokeError.
	Err   string
	Fault string

	Attrs    []Attr
	Events   []Event
	Children []int
}

// Trace is one query's span tree. It is written on the goroutine that runs
// the query's Env — every recording site is a simnet process or a kernel
// observer called between two of its scheduling points — and read once the
// simulation has drained, so it takes no lock (DESIGN §3).
type Trace struct {
	name  string
	clock Clock
	spans []*Span
}

// New creates a trace with a root span of KindQuery. clock must not be nil.
func New(name string, clock Clock) *Trace {
	t := &Trace{name: name, clock: clock}
	now, seq := clock()
	root := &Span{tr: t, ID: 0, Parent: -1, Kind: KindQuery, Name: name, Start: now, StartSeq: seq}
	t.spans = append(t.spans, root)
	return t
}

// Name returns the trace's name.
func (t *Trace) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// Root returns the query span (nil for a nil trace).
func (t *Trace) Root() *Span {
	if t == nil {
		return nil
	}
	return t.spans[0]
}

// Spans returns the spans in creation order. The slice is a copy; the spans
// are shared, so read them only after the simulation has drained.
func (t *Trace) Spans() []*Span {
	if t == nil {
		return nil
	}
	out := make([]*Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Len returns the number of spans.
func (t *Trace) Len() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// KindMs sums the durations of the spans of one kind, in milliseconds, added
// in creation order (0 for a nil trace). Read it once the spans have ended.
func (t *Trace) KindMs(kind Kind) float64 {
	if t == nil {
		return 0
	}
	var ms float64
	for _, s := range t.spans {
		if s.Kind == kind {
			ms += float64(s.End-s.Start) / 1e6
		}
	}
	return ms
}

// Child opens a child span. It returns nil (and records nothing) on a nil
// receiver. A caller that builds the name checks the receiver first, so an
// untraced serve pays for no name it would drop.
func (s *Span) Child(kind Kind, name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(s, kind, name)
}

func (t *Trace) newSpan(parent *Span, kind Kind, name string) *Span {
	now, seq := t.clock()
	sp := &Span{tr: t, ID: len(t.spans), Parent: parent.ID, Kind: kind, Name: name, Start: now, StartSeq: seq}
	t.spans = append(t.spans, sp)
	parent.Children = append(parent.Children, sp.ID)
	return sp
}

// EndSpan closes the span at the current virtual time. Ending twice keeps
// the first stamp.
func (s *Span) EndSpan() {
	if s == nil {
		return
	}
	now, seq := s.tr.clock()
	if s.ended {
		return
	}
	s.ended = true
	s.End, s.EndSeq = now, seq
}

// Ended reports whether the span has been closed.
func (s *Span) Ended() bool {
	if s == nil {
		return false
	}
	return s.ended
}

// SetBilled attributes billed milliseconds to the span: own is this
// invocation's billing, total includes nested invocations.
func (s *Span) SetBilled(own, total int64) {
	if s == nil {
		return
	}
	s.BilledMs, s.TotalBilledMs = own, total
}

// SetAttr annotates the span. A repeated key overwrites the earlier value.
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	for i := range s.Attrs {
		if s.Attrs[i].Key == key {
			s.Attrs[i].Val = val
			return
		}
	}
	s.Attrs = append(s.Attrs, Attr{key, val})
}

// Attr returns the value of an annotation ("" when absent).
func (s *Span) Attr(key string) string {
	if s == nil {
		return ""
	}
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val
		}
	}
	return ""
}

// Event records an instantaneous marker with optional key-value pairs
// (kv must alternate key, value).
func (s *Span) Event(name string, kv ...string) {
	if s == nil {
		return
	}
	now, seq := s.tr.clock()
	ev := Event{Name: name, At: now, Seq: seq}
	for i := 0; i+1 < len(kv); i += 2 {
		ev.Attrs = append(ev.Attrs, Attr{kv[i], kv[i+1]})
	}
	s.Events = append(s.Events, ev)
}

// Fail marks the span failed with the typed platform fault kind ("" when
// the failure is not an InvokeError) and a message. It does not end the
// span.
func (s *Span) Fail(fault, msg string) {
	if s == nil {
		return
	}
	s.Err, s.Fault = msg, fault
}
