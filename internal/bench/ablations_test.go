package bench

import "testing"

func TestAblationsShowDesignValue(t *testing.T) {
	res, err := Ablations(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	byVariant := map[string]AblationRow{}
	for _, r := range res.Rows {
		if r.Model == "vgg16" {
			byVariant[r.Variant] = r
		}
	}
	full := byVariant["full gillis"]
	if full.MeanMs <= 0 {
		t.Fatal("missing full-gillis row")
	}
	// Disabling layer grouping must not help (it adds per-group round
	// trips); disabling master participation must not help either.
	if ng := byVariant["no grouping"]; ng.MeanMs < full.MeanMs*0.99 {
		t.Errorf("no-grouping (%.0f ms) should not beat full gillis (%.0f ms)", ng.MeanMs, full.MeanMs)
	}
	if nm := byVariant["no master part."]; nm.MeanMs < full.MeanMs*0.99 {
		t.Errorf("no-master (%.0f ms) should not beat full gillis (%.0f ms)", nm.MeanMs, full.MeanMs)
	}
	// The ungrouped plan has as many groups as units.
	if ng := byVariant["no grouping"]; ng.Groups <= full.Groups {
		t.Errorf("no-grouping should have more groups (%d vs %d)", ng.Groups, full.Groups)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

func TestBurstColdVsWarm(t *testing.T) {
	res, err := Burst(quickCtx())
	if err != nil {
		t.Fatal(err)
	}
	type key struct {
		n    int
		warm bool
	}
	rows := map[key]BurstRow{}
	for _, r := range res.Rows {
		rows[key{r.Concurrency, r.Prewarmed}] = r
	}
	for _, n := range []int{1, 8} {
		cold := rows[key{n, false}]
		warm := rows[key{n, true}]
		if cold.ColdStarts == 0 {
			t.Errorf("n=%d: cold run should pay cold starts", n)
		}
		if warm.ColdStarts != 0 {
			t.Errorf("n=%d: prewarmed run should have no cold starts, got %d", n, warm.ColdStarts)
		}
		if warm.MeanMs >= cold.MeanMs {
			t.Errorf("n=%d: prewarmed mean (%.0f) should beat cold (%.0f)", n, warm.MeanMs, cold.MeanMs)
		}
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}
