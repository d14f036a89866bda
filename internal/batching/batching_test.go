package batching

import (
	"testing"
	"time"
)

func mustNew(t *testing.T, cfg Config) *Former {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidates(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"ok", Config{MaxBatch: 4, MaxDelay: 50 * time.Millisecond}, true},
		{"max-batch-one", Config{MaxBatch: 1, MaxDelay: 50 * time.Millisecond}, false},
		{"no-delay", Config{MaxBatch: 4}, false},
		{"negative-est", Config{MaxBatch: 4, MaxDelay: time.Millisecond, SLOMs: 100, EstServeMs: -1}, false},
	}
	for _, tc := range cases {
		_, err := New(tc.cfg)
		if (err == nil) != tc.ok {
			t.Errorf("%s: err=%v, ok=%v", tc.name, err, tc.ok)
		}
	}
}

// TestClosingRules is the table-driven satellite: one case per closing
// rule, plus precedence and no-close cases.
func TestClosingRules(t *testing.T) {
	const ms = time.Millisecond
	base := Config{MaxBatch: 4, MaxDelay: 200 * ms}
	slo := base
	slo.SLOMs = 500
	slo.EstServeMs = 150
	cases := []struct {
		name     string
		cfg      Config
		arrivals []time.Duration // one Add per entry
		now      time.Duration
		drained  bool
		wantFull bool // last Add reports full (size rule)
		want     CloseReason
	}{
		{
			name: "size-triggered", cfg: base,
			arrivals: []time.Duration{0, 10 * ms, 20 * ms, 30 * ms},
			now:      30 * ms, wantFull: true, want: ReasonNone, // closed at Add, not at tick
		},
		{
			name: "delay-triggered", cfg: base,
			arrivals: []time.Duration{0, 150 * ms},
			now:      200 * ms, want: ReasonDelay,
		},
		{
			name: "delay-not-yet", cfg: base,
			arrivals: []time.Duration{0, 150 * ms},
			now:      199 * ms, want: ReasonNone,
		},
		{
			// wait 100 + tick 100 + est 150 < SLO 500: still headroom.
			name: "slo-not-yet", cfg: slo,
			arrivals: []time.Duration{0},
			now:      100 * ms, want: ReasonNone,
		},
		{
			// wait 199 + tick 100 + est 150 < 500 and wait < MaxDelay 200:
			// neither rule fires one instant before the delay bound.
			name: "slo-and-delay-not-yet", cfg: slo,
			arrivals: []time.Duration{0},
			now:      199 * ms, want: ReasonNone,
		},
		{
			// wait 250 + tick 100 + est 150 >= 500: dispatch now so the
			// oldest member still attains its SLO.
			name: "slo-deadline-triggered", cfg: slo,
			arrivals: []time.Duration{0},
			now:      250 * ms, want: ReasonSLO,
		},
		{
			name: "drain-on-shutdown", cfg: base,
			arrivals: []time.Duration{0},
			now:      50 * ms, drained: true, want: ReasonDrain,
		},
		{
			name: "empty-never-closes", cfg: base,
			now: time.Second, drained: true, want: ReasonNone,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := mustNew(t, tc.cfg)
			full := false
			for i, a := range tc.arrivals {
				full = f.Add(i, a)
			}
			if full != tc.wantFull {
				t.Fatalf("Add full=%v, want %v", full, tc.wantFull)
			}
			if got := f.ShouldClose(tc.now, tc.drained); got != tc.want {
				t.Fatalf("ShouldClose = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestSLOPrecedesDelay pins rule precedence on a tick where both fire.
func TestSLOPrecedesDelay(t *testing.T) {
	const ms = time.Millisecond
	cfg := Config{MaxBatch: 8, MaxDelay: 200 * ms, SLOMs: 400, EstServeMs: 150}
	f := mustNew(t, cfg)
	f.Add(0, 0)
	// wait=250: delay (250 >= 200) and SLO (250+100+150 >= 400) both hold.
	if got := f.ShouldClose(250*ms, false); got != ReasonSLO {
		t.Fatalf("ShouldClose = %v, want slo", got)
	}
}

// TestSLOClosesBeforeDeadline pins the tick-early semantics: the rule fires
// on the last tick from which immediate dispatch still attains the SLO.
func TestSLOClosesBeforeDeadline(t *testing.T) {
	const ms = time.Millisecond
	cfg := Config{MaxBatch: 8, MaxDelay: time.Hour, SLOMs: 400, EstServeMs: 150}
	f := mustNew(t, cfg)
	f.Add(0, 0)
	if got := f.ShouldClose(100*ms, false); got != ReasonNone {
		t.Fatalf("t=100ms: %v, want none (100+100+150 < 400)", got)
	}
	if got := f.ShouldClose(200*ms, false); got != ReasonSLO {
		t.Fatalf("t=200ms: %v, want slo (200+100+150 >= 400)", got)
	}
	// Closing at t=200 leaves 200ms of SLO headroom >= EstServeMs 150.
	if wait := f.OldestWaitMs(200 * ms); cfg.SLOMs-wait < cfg.EstServeMs {
		t.Fatalf("closing too late: wait %.0f leaves %.0f < estimate %.0f", wait, cfg.SLOMs-wait, cfg.EstServeMs)
	}
}

func TestTakeDrainsMembers(t *testing.T) {
	f := mustNew(t, Config{MaxBatch: 3, MaxDelay: time.Second})
	f.Add(7, 0)
	f.Add(9, time.Millisecond)
	got := f.Take()
	if len(got) != 2 || got[0].ID != 7 || got[1].ID != 9 {
		t.Fatalf("Take = %v", got)
	}
	if len(f.members) != 0 {
		t.Fatalf("%d members still forming after Take", len(f.members))
	}
	if f.ShouldClose(time.Hour, true) != ReasonNone {
		t.Fatal("empty former must not close")
	}
}

func TestReasonStrings(t *testing.T) {
	want := map[CloseReason]string{
		ReasonNone: "none", ReasonSize: "size", ReasonSLO: "slo",
		ReasonDelay: "delay", ReasonDrain: "drain",
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("%d.String() = %q, want %q", r, r.String(), s)
		}
	}
}
