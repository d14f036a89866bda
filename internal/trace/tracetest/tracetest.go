// Package tracetest asserts structural invariants over traces produced by
// the deterministic simulator. Tests use it to pin properties like "no span
// outside its parent", "per-span billing sums to the platform's billed
// total", and "a hedge win implies the losing attempt was cancelled or
// failed" — instead of re-deriving absolute timings.
//
// Call the checkers only after the simulation has drained
// (simnet.Env.Run returned): spans are still being written while processes
// run.
package tracetest

import (
	"testing"

	"gillis/internal/trace"
)

// outlivesParentOK reports whether a span is allowed to end after its
// parent: abandoned calls (a sibling failed the fork-join round) and
// hedge-race participants (the loser settles after the race is decided)
// legitimately outlive the caller that stopped waiting for them.
func outlivesParentOK(s *trace.Span) bool {
	return s.Attr("abandoned") != "" || s.Attr("hedge") != ""
}

// CheckWellFormed asserts the structural invariants every trace must
// satisfy: parent links are consistent, every span starts within its
// parent, no span ends after its parent unless it carries an explicit
// abandonment mark, ended spans run forward in time, and events fall inside
// their span.
func CheckWellFormed(t testing.TB, tr *trace.Trace) {
	t.Helper()
	spans := tr.Spans()
	if len(spans) == 0 {
		t.Fatal("tracetest: empty trace")
	}
	for _, s := range spans {
		if s.ID != 0 && (s.Parent < 0 || s.Parent >= len(spans) || s.Parent >= s.ID) {
			t.Errorf("span %d (%s): bad parent %d", s.ID, s.Name, s.Parent)
			continue
		}
		if !s.Ended() {
			t.Errorf("span %d (%s): never ended", s.ID, s.Name)
			continue
		}
		if s.End < s.Start {
			t.Errorf("span %d (%s): ends %v before start %v", s.ID, s.Name, s.End, s.Start)
		}
		for _, ev := range s.Events {
			if ev.At < s.Start || ev.At > s.End {
				t.Errorf("span %d (%s): event %q at %v outside [%v, %v]", s.ID, s.Name, ev.Name, ev.At, s.Start, s.End)
			}
		}
		if s.ID == 0 {
			continue
		}
		p := spans[s.Parent]
		if s.Start < p.Start {
			t.Errorf("span %d (%s): starts %v before parent %d (%s) start %v", s.ID, s.Name, s.Start, p.ID, p.Name, p.Start)
		}
		if s.End > p.End && !outlivesParentOK(s) {
			t.Errorf("span %d (%s): ends %v after parent %d (%s) end %v without an abandonment mark",
				s.ID, s.Name, s.End, p.ID, p.Name, p.End)
		}
	}
}

// BilledMsSum returns the total billed milliseconds attributed across the
// trace's spans. Because billing is attributed exactly once, to the
// invocation span that incurred it, this equals the platform's
// BilledMsTotal for a simulation that served only this trace's query.
func BilledMsSum(tr *trace.Trace) int64 {
	var sum int64
	for _, s := range tr.Spans() {
		sum += s.BilledMs
	}
	return sum
}

// CheckBilledTotal asserts that the trace's per-span billing sums exactly
// to want (typically platform.BilledMsTotal after the simulation drained).
func CheckBilledTotal(t testing.TB, tr *trace.Trace, want int64) {
	t.Helper()
	if got := BilledMsSum(tr); got != want {
		t.Errorf("tracetest: per-span billed-ms sum = %d, want %d", got, want)
	}
}

// subtreeClean reports whether no span in the subtree carries an
// abandonment mark; billing roll-ups are only exact for clean subtrees
// (work that settles after its caller stopped waiting is charged to the
// platform but not to the caller's roll-up).
func subtreeClean(spans []*trace.Span, id int) bool {
	s := spans[id]
	if outlivesParentOK(s) {
		return false
	}
	for _, ci := range s.Children {
		if !subtreeClean(spans, ci) {
			return false
		}
	}
	return true
}

// invokeChildrenTotal sums TotalBilledMs over the nearest invocation
// descendants of span id (descending through non-invocation spans).
func invokeChildrenTotal(spans []*trace.Span, id int) int64 {
	var sum int64
	for _, ci := range spans[id].Children {
		c := spans[ci]
		if c.Kind == trace.KindInvoke {
			sum += c.TotalBilledMs
			continue
		}
		sum += invokeChildrenTotal(spans, ci)
	}
	return sum
}

// CheckBilledAttribution asserts, for every invocation span whose subtree
// contains no abandoned work, that the platform's nested-billing roll-up
// matches the trace: TotalBilledMs == own BilledMs + the totals of its
// nested invocations.
func CheckBilledAttribution(t testing.TB, tr *trace.Trace) {
	t.Helper()
	spans := tr.Spans()
	for _, s := range spans {
		if s.Kind != trace.KindInvoke || !subtreeClean(spans, s.ID) {
			continue
		}
		if want := s.BilledMs + invokeChildrenTotal(spans, s.ID); s.TotalBilledMs != want {
			t.Errorf("span %d (%s): TotalBilledMs=%d, want own %d + children = %d",
				s.ID, s.Name, s.TotalBilledMs, s.BilledMs, want)
		}
	}
}

// faultKinds are the typed platform fault kinds a failed invocation span
// may carry.
var faultKinds = map[string]bool{"failure": true, "evicted": true, "throttled": true}

// CheckFaultKinds asserts every failed invocation span carries a typed
// platform fault kind, and returns how many failed invocation spans the
// trace holds (so callers can assert the check was not vacuous).
func CheckFaultKinds(t testing.TB, tr *trace.Trace) int {
	t.Helper()
	failed := 0
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindInvoke || s.Err == "" {
			continue
		}
		failed++
		if !faultKinds[s.Fault] {
			t.Errorf("span %d (%s): failed invocation with fault kind %q, want failure/evicted/throttled", s.ID, s.Name, s.Fault)
		}
	}
	return failed
}

// CheckHedges asserts the hedge-race invariants — a win implies exactly one
// backup marked as the winner and every other participant of that race lost
// or failed — and returns the hedge and hedge-win event counts.
func CheckHedges(t testing.TB, tr *trace.Trace) (hedges, wins int) {
	t.Helper()
	spans := tr.Spans()
	for _, s := range spans {
		var fired, won bool
		for _, ev := range s.Events {
			switch ev.Name {
			case "hedge":
				hedges++
				fired = true
			case "hedge-win":
				wins++
				won = true
			}
		}
		if won && !fired {
			t.Errorf("span %d (%s): hedge-win without a hedge event", s.ID, s.Name)
		}
		if !won {
			continue
		}
		var winners, settledLosers, invokes int
		for _, ci := range s.Children {
			c := spans[ci]
			if c.Kind != trace.KindInvoke {
				continue
			}
			invokes++
			switch {
			case c.Attr("hedge") == "won-backup":
				winners++
			case c.Attr("hedge") == "lost" || c.Err != "":
				settledLosers++
			}
		}
		if winners != 1 {
			t.Errorf("span %d (%s): hedge-win with %d winning backups, want 1", s.ID, s.Name, winners)
		}
		if invokes < 2 || settledLosers != invokes-winners {
			t.Errorf("span %d (%s): hedge-win with %d invocations, %d cancelled/failed losers", s.ID, s.Name, invokes, settledLosers)
		}
	}
	if wins > hedges {
		t.Errorf("tracetest: %d hedge wins exceed %d hedges", wins, hedges)
	}
	return hedges, wins
}

// ByKind returns the trace's spans of one kind, in creation order.
func ByKind(tr *trace.Trace, kind trace.Kind) []*trace.Span {
	var out []*trace.Span
	for _, s := range tr.Spans() {
		if s.Kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// CountEvents returns how many events with the given name the trace holds.
func CountEvents(tr *trace.Trace, name string) int {
	n := 0
	for _, s := range tr.Spans() {
		for _, ev := range s.Events {
			if ev.Name == name {
				n++
			}
		}
	}
	return n
}
