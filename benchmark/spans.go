package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (the product code carries no wall-clock spans of its own).
type span struct {
	Workload string `json:"workload"`
	Op       int    `json:"op"`     // spans of one op share this id
	ID       int    `json:"id"`     // unique within the op
	Parent   int    `json:"parent"` // ID of the enclosing span, -1 for the op's root
	Name     string `json:"name"`
	StartNs  int64  `json:"start_ns"` // since the log's epoch
	EndNs    int64  `json:"end_ns"`
}

// spanLog keeps every span of a traced run in memory until the run ends.
type spanLog struct {
	epoch time.Time

	mu     sync.Mutex
	spans  []span
	nextOp int
}

func newSpanLog() *spanLog { return &spanLog{epoch: time.Now()} }

// opSpans records the spans of one op. An op runs on one goroutine, so the
// open-span stack needs no lock; the finished op is appended to the log in
// one step. A nil *opSpans records nothing: the untraced run executes the
// same code path with no clock reads.
type opSpans struct {
	log      *spanLog
	workload string
	op       int
	spans    []span
	open     []int // stack of open span IDs
}

func (l *spanLog) beginOp(workload string) *opSpans {
	l.mu.Lock()
	op := l.nextOp
	l.nextOp++
	l.mu.Unlock()
	return &opSpans{log: l, workload: workload, op: op}
}

// do times fn as a span named name, nested under whichever span is open.
func (o *opSpans) do(name string, fn func()) {
	if o == nil {
		fn()
		return
	}
	parent := -1
	if n := len(o.open); n > 0 {
		parent = o.open[n-1]
	}
	id := len(o.spans)
	o.spans = append(o.spans, span{Workload: o.workload, Op: o.op, ID: id, Parent: parent, Name: name})
	o.open = append(o.open, id)
	start := time.Now()
	fn()
	end := time.Now()
	o.open = o.open[:len(o.open)-1]
	o.spans[id].StartNs = int64(start.Sub(o.log.epoch))
	o.spans[id].EndNs = int64(end.Sub(o.log.epoch))
}

// end hands the op's spans to the log.
func (o *opSpans) end() {
	if o == nil {
		return
	}
	o.log.mu.Lock()
	o.log.spans = append(o.log.spans, o.spans...)
	o.log.mu.Unlock()
}

// selfTimes returns, per span name, the mean self time per op in ms over
// the spans of one workload: a span's duration minus the durations of its
// direct children, summed by name and divided by the number of ops.
func selfTimes(spans []span, workload string) map[string]float64 {
	type key struct{ op, id int }
	childNs := make(map[key]int64)
	ops := make(map[int]bool)
	for _, s := range spans {
		if s.Workload != workload {
			continue
		}
		ops[s.Op] = true
		if s.Parent >= 0 {
			childNs[key{s.Op, s.Parent}] += s.EndNs - s.StartNs
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Workload != workload {
			continue
		}
		self := s.EndNs - s.StartNs - childNs[key{s.Op, s.ID}]
		out[s.Name] += float64(self) / 1e6 / float64(len(ops))
	}
	return out
}

func (l *spanLog) writeFile(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
