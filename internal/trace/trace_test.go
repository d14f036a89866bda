package trace

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

// fakeClock is a deterministic Clock for unit tests.
type fakeClock struct {
	now time.Duration
	seq int64
}

func (f *fakeClock) stamp() (time.Duration, int64) {
	f.seq++
	return f.now, f.seq
}

func (f *fakeClock) advance(d time.Duration) { f.now += d }

func TestSpanTree(t *testing.T) {
	clk := &fakeClock{}
	tr := New("q", clk.stamp)
	root := tr.Root()
	if root == nil || root.Kind != KindQuery || root.Parent != -1 {
		t.Fatalf("bad root: %+v", root)
	}

	clk.advance(time.Millisecond)
	a := root.Child(KindInvoke, "invoke:a")
	clk.advance(time.Millisecond)
	b := a.Child(KindExec, "exec1")
	b.SetAttr("k", "v1")
	b.SetAttr("k", "v2") // overwrite
	b.Event("ev", "x", "1")
	clk.advance(time.Millisecond)
	b.EndSpan()
	a.SetBilled(3, 7)
	a.EndSpan()
	a.EndSpan() // idempotent: keeps the first stamp
	root.EndSpan()

	if tr.Len() != 3 {
		t.Fatalf("Len=%d, want 3", tr.Len())
	}
	spans := tr.Spans()
	if spans[1] != a || spans[2] != b {
		t.Fatal("spans not in creation order")
	}
	if a.Parent != root.ID || b.Parent != a.ID {
		t.Errorf("bad parent links: a.Parent=%d b.Parent=%d", a.Parent, b.Parent)
	}
	if len(root.Children) != 1 || root.Children[0] != a.ID {
		t.Errorf("root children = %v", root.Children)
	}
	if b.Attr("k") != "v2" {
		t.Errorf("attr overwrite failed: %q", b.Attr("k"))
	}
	if b.Attr("missing") != "" {
		t.Error("missing attr must be empty")
	}
	if len(b.Events) != 1 || b.Events[0].Name != "ev" || b.Events[0].Attrs[0] != (Attr{"x", "1"}) {
		t.Errorf("bad event: %+v", b.Events)
	}
	if a.BilledMs != 3 || a.TotalBilledMs != 7 {
		t.Errorf("billing = %d/%d", a.BilledMs, a.TotalBilledMs)
	}
	if !a.Ended() || a.End != 3*time.Millisecond {
		t.Errorf("a end = %v (ended=%v)", a.End, a.Ended())
	}
	if b.Start != 2*time.Millisecond || b.End != 3*time.Millisecond {
		t.Errorf("b interval = [%v, %v]", b.Start, b.End)
	}
	if a.StartSeq >= b.StartSeq {
		t.Error("same-construction-order spans must have increasing StartSeq")
	}
}

func TestNilSafety(t *testing.T) {
	// Every method must be a no-op on nil receivers: this is what lets the
	// platform and runtime thread tracing through unconditionally.
	var tr *Trace
	var sp *Span
	if tr.Root() != nil || tr.Spans() != nil || tr.Len() != 0 || tr.Name() != "" {
		t.Error("nil trace accessors must return zero values")
	}
	if tr.Canonical(nil) != nil || tr.ChromeJSON(nil) != nil {
		t.Error("nil trace serializers must return nil")
	}
	if sp.Child(KindExec, "x") != nil {
		t.Error("nil span children must be nil")
	}
	sp.EndSpan()
	sp.SetBilled(1, 2)
	sp.SetAttr("a", "b")
	sp.Event("e")
	sp.Fail("failure", "boom")
	if sp.Attr("a") != "" || sp.Ended() {
		t.Error("nil span must hold nothing")
	}
}

func TestFailMarksSpan(t *testing.T) {
	clk := &fakeClock{}
	tr := New("q", clk.stamp)
	sp := tr.Root().Child(KindInvoke, "invoke:f")
	sp.Fail("evicted", "instance evicted")
	sp.EndSpan()
	tr.Root().EndSpan()
	if sp.Err != "instance evicted" || sp.Fault != "evicted" {
		t.Errorf("fail mark = (%q, %q)", sp.Err, sp.Fault)
	}
	out := string(tr.Canonical(nil))
	if !strings.Contains(out, "err(evicted)") {
		t.Errorf("canonical output misses fault mark:\n%s", out)
	}
}

func buildSample() *Trace {
	clk := &fakeClock{}
	tr := New("query", clk.stamp)
	root := tr.Root()
	clk.advance(time.Millisecond)
	inv := root.Child(KindInvoke, "invoke:prefix-master")
	up := inv.Child(KindUpload, "upload")
	clk.advance(time.Millisecond)
	up.EndSpan()
	ex := inv.Child(KindExec, "exec")
	ex.Event("op:conv1")
	clk.advance(2 * time.Millisecond)
	ex.EndSpan()
	inv.SetBilled(2, 2)
	inv.EndSpan()
	clk.advance(time.Millisecond)
	root.EndSpan()
	return tr
}

func TestCanonicalDeterministicAndRenamed(t *testing.T) {
	a := buildSample().Canonical(nil)
	b := buildSample().Canonical(nil)
	if string(a) != string(b) {
		t.Fatalf("canonical output not reproducible:\n%s\nvs\n%s", a, b)
	}
	if !strings.Contains(string(a), "invoke invoke:prefix-master") {
		t.Fatalf("unexpected canonical output:\n%s", a)
	}
	ren := func(s string) string { return strings.ReplaceAll(s, "prefix-", "") }
	r := buildSample().Canonical(ren)
	if strings.Contains(string(r), "prefix-") {
		t.Fatalf("rename hook not applied:\n%s", r)
	}
	if !strings.Contains(string(r), "invoke invoke:master") {
		t.Fatalf("renamed output malformed:\n%s", r)
	}
}

func TestChromeJSONParses(t *testing.T) {
	tr := buildSample()
	raw := tr.ChromeJSON(nil)
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("ChromeJSON is not valid JSON: %v\n%s", err, raw)
	}
	// 4 spans (X) + 1 event (i).
	if len(events) != 5 {
		t.Fatalf("got %d trace events, want 5:\n%s", len(events), raw)
	}
	var xs, is int
	tidOfInvoke := -1.0
	for _, ev := range events {
		switch ev["ph"] {
		case "X":
			xs++
		case "i":
			is++
		}
		for _, k := range []string{"name", "ph", "ts", "pid", "tid"} {
			if _, ok := ev[k]; !ok {
				t.Fatalf("event misses %q: %v", k, ev)
			}
		}
		if ev["cat"] == "invoke" {
			tidOfInvoke = ev["tid"].(float64)
		}
	}
	if xs != 4 || is != 1 {
		t.Errorf("got %d X / %d i events, want 4/1", xs, is)
	}
	if tidOfInvoke != 1 {
		t.Errorf("invoke span tid = %v, want its own track 1", tidOfInvoke)
	}
}
