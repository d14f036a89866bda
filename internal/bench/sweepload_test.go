package bench

import (
	"strings"
	"testing"
)

// TestSweepLoadPolicyOrdering is the acceptance check for the gateway
// figure: at the burst rate, schedule-driven prewarming must attain at
// least as much SLO as reactive prewarming, which must attain at least as
// much as no prewarming — and the policies' cost inflation must be
// reported relative to the no-prewarm floor.
func TestSweepLoadPolicyOrdering(t *testing.T) {
	report, err := SweepLoad(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 3 {
		t.Fatalf("quick sweep should be 1 platform x 1 rate x 3 policies, got %d rows", len(report.Rows))
	}
	rows := report.AtRate("lambda", 20)
	if len(rows) != 3 {
		t.Fatalf("no lambda rows at the burst rate: %+v", report.Rows)
	}
	none, react, burst := rows[0], rows[1], rows[2]
	if none.Policy != "none" || react.Policy != "target-concurrency" || burst.Policy != "burst-aware" {
		t.Fatalf("unexpected policy order: %s, %s, %s", none.Policy, react.Policy, burst.Policy)
	}
	if !(burst.Report.SLOPct >= react.Report.SLOPct && react.Report.SLOPct >= none.Report.SLOPct) {
		t.Errorf("SLO attainment ordering violated: burst-aware %.1f%% >= target-concurrency %.1f%% >= none %.1f%%",
			burst.Report.SLOPct, react.Report.SLOPct, none.Report.SLOPct)
	}
	if burst.Report.SLOPct <= none.Report.SLOPct {
		t.Errorf("burst-aware must strictly beat no prewarming at the burst rate: %.1f%% vs %.1f%%",
			burst.Report.SLOPct, none.Report.SLOPct)
	}
	// Who pays for the burst: without warm-up its cold starts land on the
	// tail; the schedule-driven pool takes most of them away.
	if none.Report.ColdStarts == 0 {
		t.Error("no-warm-up policy should pay cold starts")
	}
	if burst.Report.ColdStarts >= none.Report.ColdStarts {
		t.Errorf("burst-aware warm pool should cut cold starts: %d vs %d",
			burst.Report.ColdStarts, none.Report.ColdStarts)
	}
	if burst.Report.P99Ms >= none.Report.P99Ms {
		t.Errorf("burst-aware p99 (%.0f) should beat no-warm-up (%.0f)", burst.Report.P99Ms, none.Report.P99Ms)
	}
	if none.CostInflation != 1 {
		t.Errorf("NonePolicy is the cost floor, inflation %.3f", none.CostInflation)
	}
	for _, row := range []SweepLoadRow{react, burst} {
		if row.CostInflation < 1 {
			t.Errorf("%s: prewarming cannot cost less than not prewarming (inflation %.3f)", row.Policy, row.CostInflation)
		}
		if row.Report.PrewarmBilledMs == 0 {
			t.Errorf("%s: no prewarm spend recorded", row.Policy)
		}
	}
	if none.Report.PrewarmBilledMs != 0 {
		t.Errorf("NonePolicy spent %d ms prewarming", none.Report.PrewarmBilledMs)
	}
	if !strings.Contains(report.Table(), "burst-aware") {
		t.Error("table missing policy rows")
	}
	js, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), "\"slo_pct\"") || !strings.Contains(string(js), "\"cost_inflation\"") {
		t.Fatalf("baseline JSON malformed:\n%s", js)
	}
}

// TestSweepLoadDeterministic pins the baseline property: the same context
// reproduces byte-identical JSON.
func TestSweepLoadDeterministic(t *testing.T) {
	a, err := SweepLoad(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepLoad(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if string(ja) != string(jb) {
		t.Fatal("SweepLoad is not deterministic for a fixed seed")
	}
}
