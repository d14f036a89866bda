package tracetest

import (
	"strings"
	"testing"
	"time"

	"gillis/internal/trace"
)

// recordTB captures checker failures so the self-test can assert that the
// checkers actually reject malformed traces.
type recordTB struct {
	testing.TB
	errs int
}

func (r *recordTB) Errorf(format string, args ...any) { r.errs++ }
func (r *recordTB) Helper()                           {}

type clock struct {
	now time.Duration
	seq int64
}

func (c *clock) stamp() (time.Duration, int64) {
	c.seq++
	return c.now, c.seq
}

// goodTrace models one healthy invocation plus one failed, hedged one.
func goodTrace() (*trace.Trace, *clock) {
	c := &clock{}
	tr := trace.New("query", c.stamp)
	root := tr.Root()

	att := root.Child(trace.KindAttempt, "attempt")
	att.Event("hedge")
	p := att.Child(trace.KindInvoke, "invoke:w")
	p.SetAttr("hedge", "lost")
	p.SetBilled(4, 4)
	b := att.Child(trace.KindInvoke, "invoke:w")
	b.SetAttr("hedge", "won-backup")
	b.SetBilled(3, 3)
	c.now += 2 * time.Millisecond
	b.EndSpan()
	att.Event("hedge-win")
	att.EndSpan()
	c.now += time.Millisecond
	p.EndSpan() // loser settles after the race: allowed by the hedge mark

	f := root.Child(trace.KindInvoke, "invoke:bad")
	f.Fail("failure", "boom")
	f.SetBilled(2, 2)
	f.EndSpan()

	root.EndSpan()
	return tr, c
}

func TestCheckersAcceptGoodTrace(t *testing.T) {
	tr, _ := goodTrace()
	CheckWellFormed(t, tr)
	CheckBilledAttribution(t, tr)
	CheckBilledTotal(t, tr, 9)
	if failed := CheckFaultKinds(t, tr); failed != 1 {
		t.Errorf("failed invocation spans = %d, want 1", failed)
	}
	hedges, wins := CheckHedges(t, tr)
	if hedges != 1 || wins != 1 {
		t.Errorf("hedges=%d wins=%d, want 1/1", hedges, wins)
	}
	if n := len(ByKind(tr, trace.KindInvoke)); n != 3 {
		t.Errorf("invoke spans = %d, want 3", n)
	}
	if n := CountEvents(tr, "hedge"); n != 1 {
		t.Errorf("hedge events = %d, want 1", n)
	}
}

func TestWellFormedRejectsUnendedSpan(t *testing.T) {
	c := &clock{}
	tr := trace.New("q", c.stamp)
	tr.Root().Child(trace.KindExec, "open") // never ended
	tr.Root().EndSpan()
	rec := &recordTB{TB: t}
	CheckWellFormed(rec, tr)
	if rec.errs == 0 {
		t.Fatal("unended span must fail CheckWellFormed")
	}
}

func TestWellFormedRejectsUnmarkedOverhang(t *testing.T) {
	c := &clock{}
	tr := trace.New("q", c.stamp)
	child := tr.Root().Child(trace.KindExec, "late")
	tr.Root().EndSpan()
	c.now += time.Millisecond
	child.EndSpan() // outlives the root without an abandonment mark
	rec := &recordTB{TB: t}
	CheckWellFormed(rec, tr)
	if rec.errs == 0 {
		t.Fatal("unmarked overhang must fail CheckWellFormed")
	}
}

func TestBilledTotalMismatchRejected(t *testing.T) {
	tr, _ := goodTrace()
	rec := &recordTB{TB: t}
	CheckBilledTotal(rec, tr, 1234)
	if rec.errs == 0 {
		t.Fatal("wrong billed total must be rejected")
	}
}

func TestFaultKindRequired(t *testing.T) {
	c := &clock{}
	tr := trace.New("q", c.stamp)
	bad := tr.Root().Child(trace.KindInvoke, "invoke:f")
	bad.Fail("", "untyped failure") // a failed invocation must carry a kind
	bad.EndSpan()
	tr.Root().EndSpan()
	rec := &recordTB{TB: t}
	CheckFaultKinds(rec, tr)
	if rec.errs == 0 {
		t.Fatal("untyped failed invocation must be rejected")
	}
}

func TestHedgeWinWithoutWinnerRejected(t *testing.T) {
	c := &clock{}
	tr := trace.New("q", c.stamp)
	att := tr.Root().Child(trace.KindAttempt, "attempt")
	att.Event("hedge")
	att.Event("hedge-win")
	p := att.Child(trace.KindInvoke, "invoke:w") // no winner mark
	p.SetAttr("hedge", "lost")
	p.EndSpan()
	att.EndSpan()
	tr.Root().EndSpan()
	rec := &recordTB{TB: t}
	CheckHedges(rec, tr)
	if rec.errs == 0 {
		t.Fatal("hedge-win without a marked winning backup must be rejected")
	}
}

func TestBilledAttributionMismatchRejected(t *testing.T) {
	c := &clock{}
	tr := trace.New("q", c.stamp)
	outer := tr.Root().Child(trace.KindInvoke, "invoke:master")
	inner := outer.Child(trace.KindInvoke, "invoke:worker")
	inner.SetBilled(5, 5)
	inner.EndSpan()
	outer.SetBilled(10, 12) // should be 10 + 5
	outer.EndSpan()
	tr.Root().EndSpan()
	rec := &recordTB{TB: t}
	CheckBilledAttribution(rec, tr)
	if rec.errs == 0 {
		t.Fatal("inconsistent nested billing must be rejected")
	}
}

func TestCanonicalDeterministicAndRenamed(t *testing.T) {
	a, _ := goodTrace()
	b, _ := goodTrace()
	got := string(Canonical(a, nil))
	if got != string(Canonical(b, nil)) {
		t.Fatalf("canonical output not reproducible:\n%s\nvs\n%s", got, Canonical(b, nil))
	}
	for _, want := range []string{
		"query query start=0ns dur=3000000ns\n",
		"\n  attempt attempt start=0ns dur=2000000ns\n    @ hedge at=0ns\n",
		"\n    invoke invoke:w start=0ns dur=3000000ns billed=4/4ms hedge=lost\n",
		"\n  invoke invoke:bad start=3000000ns dur=0ns billed=2/2ms err(failure)\n",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("canonical output misses %q:\n%s", want, got)
		}
	}
	r := string(Canonical(a, func(s string) string { return strings.ReplaceAll(s, "invoke:", "call:") }))
	if strings.Contains(r, "invoke:") || !strings.Contains(r, "invoke call:bad") {
		t.Fatalf("rename hook not applied:\n%s", r)
	}
	unended := trace.New("q", (&clock{}).stamp)
	unended.Root().Child(trace.KindExec, "exec")
	if got := string(Canonical(unended, nil)); !strings.Contains(got, "exec exec start=0ns dur=0ns unfinished\n") {
		t.Errorf("an unended span is not marked:\n%s", got)
	}
	if Canonical(nil, nil) != nil {
		t.Error("a nil trace renders")
	}
}
