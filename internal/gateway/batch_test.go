package gateway

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"gillis/internal/batching"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/tensor"
	"gillis/internal/workload"
)

const ms = time.Millisecond

// TestBatchClosingRulesEndToEnd drives each closing rule through a full
// replay and pins which rule the report attributes each batch to.
func TestBatchClosingRulesEndToEnd(t *testing.T) {
	cases := []struct {
		name     string
		arrivals []time.Duration
		batch    batching.Config
		sloMs    float64
		closedBy map[string]int
		batches  int
	}{
		{
			// Two pairs of back-to-back arrivals fill MaxBatch 2 twice.
			name:     "size-triggered",
			arrivals: []time.Duration{0, 1 * ms, 2 * ms, 3 * ms},
			batch:    batching.Config{MaxBatch: 2, MaxDelay: 10 * time.Second},
			closedBy: map[string]int{"size": 2},
			batches:  2,
		},
		{
			// The early pair waits out MaxDelay while the straggler keeps
			// the trace undrained; the straggler itself closes on drain.
			name:     "delay-triggered",
			arrivals: []time.Duration{1 * ms, 2 * ms, 10 * time.Second},
			batch:    batching.Config{MaxBatch: 8, MaxDelay: 150 * ms},
			closedBy: map[string]int{"delay": 1, "drain": 1},
			batches:  2,
		},
		{
			// SLO 500 - est 300 - tick 100 fires at the 200 ms tick, well
			// before the 1 s delay bound; the straggler's own first tick
			// also trips the SLO rule (precedence over drain).
			name:     "slo-deadline-triggered",
			arrivals: []time.Duration{1 * ms, 2 * ms, 10 * time.Second},
			batch:    batching.Config{MaxBatch: 8, MaxDelay: time.Second, EstServeMs: 300},
			sloMs:    500,
			closedBy: map[string]int{"slo": 2},
			batches:  2,
		},
		{
			// A lone arrival can never fill the batch: the drained trace
			// closes it on the next tick.
			name:     "drain-on-shutdown",
			arrivals: []time.Duration{1 * ms},
			batch:    batching.Config{MaxBatch: 4, MaxDelay: 10 * time.Second},
			closedBy: map[string]int{"drain": 1},
			batches:  1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
			rep, outs, err := Run(d, tc.arrivals, Config{
				MaxInFlight: 4, QueueCap: 8, SLOMs: tc.sloMs, Batch: tc.batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Batches != tc.batches {
				t.Fatalf("batches = %d, want %d: %+v", rep.Batches, tc.batches, rep)
			}
			if len(rep.BatchClosedBy) != len(tc.closedBy) {
				t.Fatalf("closed-by = %v, want %v", rep.BatchClosedBy, tc.closedBy)
			}
			for k, n := range tc.closedBy {
				if rep.BatchClosedBy[k] != n {
					t.Fatalf("closed-by[%s] = %d, want %d", k, rep.BatchClosedBy[k], n)
				}
			}
			if rep.Served != len(tc.arrivals) {
				t.Fatalf("served %d of %d", rep.Served, len(tc.arrivals))
			}
			for _, o := range outs {
				if o.BatchSize < 1 {
					t.Fatalf("query %d has no batch size: %+v", o.ID, o)
				}
			}
		})
	}
}

// TestBatchOutcomeAccounting pins the typed per-member outcome contract on
// one size-closed batch: distinct arrivals and queue waits, a shared serve
// latency, billed time split so the members sum to the batch, and the cold
// start attributed to the first member only.
func TestBatchOutcomeAccounting(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	arrivals := []time.Duration{0, 3 * ms, 7 * ms}
	rep, outs, err := Run(d, arrivals, Config{
		MaxInFlight: 2, QueueCap: 4,
		Batch: batching.Config{MaxBatch: 3, MaxDelay: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Batches != 1 || rep.MeanBatch != 3 {
		t.Fatalf("batches/mean = %d/%.1f, want 1/3.0", rep.Batches, rep.MeanBatch)
	}
	var billed int64
	for i, o := range outs {
		if o.BatchSize != 3 {
			t.Errorf("query %d batch size %d, want 3", i, o.BatchSize)
		}
		if o.LatencyMs != outs[0].LatencyMs {
			t.Errorf("query %d latency %.3f diverged from shared %.3f", i, o.LatencyMs, outs[0].LatencyMs)
		}
		wantQueue := outs[2].ArrivalMs - o.ArrivalMs // batch closed at the last arrival
		if o.QueueMs != wantQueue {
			t.Errorf("query %d queue wait %.3f, want %.3f", i, o.QueueMs, wantQueue)
		}
		if o.ColdStart != (i == 0) {
			t.Errorf("query %d cold start %v; batches attribute it to member 0", i, o.ColdStart)
		}
		billed += o.BilledMs
	}
	if billed != rep.BilledMs {
		t.Errorf("member billed sum %d does not reconcile with report %d", billed, rep.BilledMs)
	}
	if outs[0].BilledMs < outs[2].BilledMs {
		t.Errorf("billed remainder should go to the earliest members: %d < %d", outs[0].BilledMs, outs[2].BilledMs)
	}
	// The runtime feeds one metric set whatever the unit size: three
	// queries, one latency observation for the pass that carried them.
	reg := d.Platform().Metrics()
	if q, n := reg.Counter("runtime.queries").Value(), reg.Histogram("runtime.query_latency_ms").Count(); q != 3 || n != 1 {
		t.Errorf("runtime.queries = %d, runtime.query_latency_ms count = %d, want 3 and 1", q, n)
	}
}

// TestBatchShedWholeBatch pins whole-batch shedding: with the single slot
// held and no queue room, a closed batch sheds every member.
func TestBatchShedWholeBatch(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	arrivals := []time.Duration{0, 1 * ms, 2 * ms, 3 * ms}
	rep, outs, err := Run(d, arrivals, Config{
		MaxInFlight: 1, QueueCap: 0,
		Batch: batching.Config{MaxBatch: 2, MaxDelay: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != 2 || rep.Shed != 2 {
		t.Fatalf("served/shed = %d/%d, want 2/2: %+v", rep.Served, rep.Shed, rep)
	}
	for _, i := range []int{2, 3} {
		if !outs[i].Shed || outs[i].Err != ErrShed.Error() || outs[i].BatchSize != 2 {
			t.Errorf("query %d should shed with its batch: %+v", i, outs[i])
		}
	}
	if rep.Batches != 2 {
		t.Errorf("shed batches must still count as closed: %d", rep.Batches)
	}
}

// TestBatchTracedSharesTrace pins that a traced batch hands every member
// the same span tree.
func TestBatchTracedSharesTrace(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	_, outs, err := Run(d, []time.Duration{0, 1 * ms}, Config{
		MaxInFlight: 1, Traced: true,
		Batch: batching.Config{MaxBatch: 2, MaxDelay: time.Second},
	})
	if err != nil {
		t.Fatal(err)
	}
	if outs[0].Trace == nil || outs[0].Trace != outs[1].Trace {
		t.Fatalf("batch members must share one trace: %p vs %p", outs[0].Trace, outs[1].Trace)
	}
}

// TestBatchedRealMatchesPerQueryForward is the end-to-end correctness pin:
// a batched Real-mode replay with a distinct input per query must produce,
// for every query, exactly the output of the monolithic per-query forward.
func TestBatchedRealMatchesPerQueryForward(t *testing.T) {
	units := tinyCNN(t)
	rng := rand.New(rand.NewSource(13))
	arrivals := []time.Duration{0, 2 * ms, 4 * ms, 6 * ms, 8 * ms, 500 * ms, 502 * ms}
	inputs := make([]*tensor.Tensor, len(arrivals))
	want := make([]*tensor.Tensor, len(arrivals))
	for i := range inputs {
		inputs[i] = tensor.Rand(rng, 1, 3, 24, 24)
		out, err := partition.ForwardChain(units, inputs[i])
		if err != nil {
			t.Fatal(err)
		}
		want[i] = out
	}
	d := deploy(t, platform.AWSLambda(), 3, runtime.Real)
	rep, outs, err := Run(d, arrivals, Config{
		MaxInFlight: 2, QueueCap: 8,
		Input: func(i int) *tensor.Tensor { return inputs[i] },
		Batch: batching.Config{MaxBatch: 4, MaxDelay: 100 * ms},
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Served != len(arrivals) {
		t.Fatalf("served %d of %d: %+v", rep.Served, len(arrivals), rep)
	}
	for i, o := range outs {
		if o.Output == nil || !tensor.Equal(o.Output, want[i]) {
			t.Errorf("query %d batched output diverged from per-query forward", i)
		}
	}
}

// TestBatchReplayDeterminismProperty replays 100 seeded Poisson traces at
// kernel parallelism 1 and 4 and requires bit-identical reports and
// outcomes — the batched path must stay simnet-deterministic.
func TestBatchReplayDeterminismProperty(t *testing.T) {
	for seed := int64(0); seed < 100; seed++ {
		arrivals, err := workload.Poisson(rand.New(rand.NewSource(seed)), 4, 4*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		if len(arrivals) == 0 {
			continue
		}
		var reports []string
		var digests []string
		for _, workers := range []int{1, 4} {
			restore := par.SetParallelism(workers)
			d := deploy(t, platform.AWSLambda(), seed, runtime.ShapeOnly)
			rep, outs, err := Run(d, arrivals, Config{
				MaxInFlight: 2, QueueCap: 4, SLOMs: 800,
				Batch: batching.Config{MaxBatch: 4, MaxDelay: 200 * ms, EstServeMs: 300},
			})
			restore()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(rep)
			if err != nil {
				t.Fatal(err)
			}
			reports = append(reports, string(b))
			digests = append(digests, outcomeDigest(outs))
		}
		if reports[0] != reports[1] {
			t.Fatalf("seed %d: report diverged across parallelism:\n%s\nvs\n%s", seed, reports[0], reports[1])
		}
		if digests[0] != digests[1] {
			t.Fatalf("seed %d: outcome digest diverged: %s vs %s", seed, digests[0], digests[1])
		}
	}
}

// TestGoldenBatchReport pins the full report and outcome digest of a seeded
// batched Real-mode burst replay, across repeat runs and kernel-parallelism
// settings, against testdata/batch_report.golden.
func TestGoldenBatchReport(t *testing.T) {
	replay := func() (*LoadReport, []Outcome) {
		cfg := platform.AWSLambda()
		cfg.WarmIdleMs = 8000
		cfg.PrewarmMs = cfg.ColdStartMs
		d := deploy(t, cfg, 7, runtime.Real)
		x := tensor.Rand(rand.New(rand.NewSource(3)), 1, 3, 24, 24)
		rep, outs, err := Run(d, burstTrace(t), Config{
			MaxInFlight: 4,
			QueueCap:    8,
			SLOMs:       900,
			Input:       func(int) *tensor.Tensor { return x },
			Policy:      BurstAware{Spec: burstSpec(), EstServeMs: 400, LeadMs: 500},
			Batch:       batching.Config{MaxBatch: 4, MaxDelay: 120 * ms, EstServeMs: 400},
		})
		if err != nil {
			t.Fatal(err)
		}
		return rep, outs
	}
	type run struct {
		report string
		digest string
	}
	var runs []run
	for _, workers := range []int{1, 4, 1} {
		restore := par.SetParallelism(workers)
		rep, outs := replay()
		restore()
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, run{report: string(b) + "\n", digest: outcomeDigest(outs)})
	}
	for i := 1; i < len(runs); i++ {
		if runs[i] != runs[0] {
			t.Fatalf("batched replay %d diverged:\n%s %s\nvs\n%s %s",
				i, runs[i].report, runs[i].digest, runs[0].report, runs[0].digest)
		}
	}
	got := runs[0].report + "digest " + runs[0].digest + "\n"
	goldenPath := filepath.Join("testdata", "batch_report.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("batched report diverges from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}
}

// TestBatchRunValidation covers the batched config error paths.
func TestBatchRunValidation(t *testing.T) {
	d := deploy(t, platform.AWSLambda(), 1, runtime.ShapeOnly)
	// Missing MaxDelay is a former-config error.
	if _, _, err := Run(d, nil, Config{MaxInFlight: 1, Batch: batching.Config{MaxBatch: 2}}); err == nil {
		t.Error("batching without MaxDelay must be rejected")
	}
	// MaxBatch 1 forms no batches, so it needs no former config.
	if _, _, err := Run(d, nil, Config{MaxInFlight: 1, Batch: batching.Config{MaxBatch: 1}}); err != nil {
		t.Errorf("MaxBatch 1 should need no MaxDelay: %v", err)
	}
}
