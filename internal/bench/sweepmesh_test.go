package bench

import (
	"strings"
	"testing"
)

// TestSweepMeshCacheOrdering is the acceptance check for the mesh figure:
// LRU residency caching must strictly beat the no-cache baseline on hit
// rate and SLO attainment, at equal or lower cost per query.
func TestSweepMeshCacheOrdering(t *testing.T) {
	report, err := SweepMesh(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Rows) != 2 {
		t.Fatalf("quick sweep should be 1 cell x 2 policies, got %d rows", len(report.Rows))
	}
	rows := report.Rows
	for _, row := range rows {
		if row.Models != 4 || row.ZipfS != 1.1 || row.Instances != 2 {
			t.Fatalf("quick sweep row off its one cell: %+v", row)
		}
	}
	lru, nocache := rows[0], rows[1]
	if lru.Policy != "lru" || nocache.Policy != "nocache" {
		t.Fatalf("unexpected policy order: %s, %s", lru.Policy, nocache.Policy)
	}
	if lru.Mesh.HitPct <= nocache.Mesh.HitPct {
		t.Errorf("LRU must strictly beat no-cache on hit rate: %.1f%% vs %.1f%%",
			lru.Mesh.HitPct, nocache.Mesh.HitPct)
	}
	if nocache.Mesh.Hits != 0 {
		t.Errorf("no-cache baseline recorded %d hits", nocache.Mesh.Hits)
	}
	if lru.Report.SLOPct <= nocache.Report.SLOPct {
		t.Errorf("LRU must strictly beat no-cache on SLO attainment: %.1f%% vs %.1f%%",
			lru.Report.SLOPct, nocache.Report.SLOPct)
	}
	if lru.Report.CostPer1K > nocache.Report.CostPer1K {
		t.Errorf("caching cannot cost more than refetching every query: %.0f vs %.0f ms/1k",
			lru.Report.CostPer1K, nocache.Report.CostPer1K)
	}
	if lru.CostInflation != 1 {
		t.Errorf("LRU is the cost floor, inflation %.3f", lru.CostInflation)
	}
	if nocache.CostInflation < 1 {
		t.Errorf("no-cache inflation below the floor: %.3f", nocache.CostInflation)
	}
	if lru.Mesh.Loads >= nocache.Mesh.Loads {
		t.Errorf("LRU must fetch fewer copies: %d vs %d loads", lru.Mesh.Loads, nocache.Mesh.Loads)
	}
	if !strings.Contains(report.Table(), "nocache") {
		t.Error("table missing policy rows")
	}
	js, err := report.JSON()
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"\"hit_pct\"", "\"cost_inflation\"", "\"slo_ms\"", "\"by_model\""} {
		if !strings.Contains(string(js), key) {
			t.Fatalf("baseline JSON missing %s:\n%s", key, js)
		}
	}
}

// TestSweepMeshDeterministic pins the baseline property: the same context
// reproduces byte-identical JSON.
func TestSweepMeshDeterministic(t *testing.T) {
	a, err := SweepMesh(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	b, err := SweepMesh(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := a.JSON()
	jb, _ := b.JSON()
	if string(ja) != string(jb) {
		t.Fatal("SweepMesh is not deterministic for a fixed seed")
	}
}
