package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"gillis/internal/bench"
)

func TestKernelsSweepShape(t *testing.T) {
	ctx := bench.NewContext(7)
	ctx.Quick = true
	rep, err := kernels(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rep.GoMaxProcs < 1 || len(rep.Levels) < 1 || rep.Levels[0] != 1 {
		t.Fatalf("bad sweep header: %+v", rep)
	}
	wantResults := len(kernelCases()) * len(rep.Levels)
	if len(rep.Results) != wantResults {
		t.Fatalf("want %d results (%d kernels x %d levels), got %d", wantResults, len(kernelCases()), len(rep.Levels), len(rep.Results))
	}
	for _, r := range rep.Results {
		if r.NsPerOp <= 0 {
			t.Errorf("%s p=%d: non-positive ns/op", r.Kernel, r.Parallelism)
		}
		if r.Parallelism == 1 && r.Speedup != 1 {
			t.Errorf("%s: serial speedup must be exactly 1, got %v", r.Kernel, r.Speedup)
		}
		// Scratch reuse: steady-state forwards allocate only the output
		// tensor, closures, and per-call bookkeeping — strictly bounded.
		// Parallel dispatch adds a few heap allocations per par.For call
		// (waitgroup, chunk counter, two shared closures); the LSTM's 16
		// sequential timestep dispatches are the worst case. The bound is
		// independent of tensor sizes either way — a scratch-arena leak
		// shows up as hundreds of allocs, not dozens.
		limit := int64(16)
		if r.Parallelism > 1 {
			limit = 96
		}
		if r.AllocsPerOp > limit {
			t.Errorf("%s p=%d: %d allocs/op (limit %d), scratch arena is not being reused", r.Kernel, r.Parallelism, r.AllocsPerOp, limit)
		}
	}
	table := rep.Table()
	if !strings.Contains(table, "conv3x3-c32-28x28") || !strings.Contains(table, "conv3x3-c512-7x7") || !strings.Contains(table, "lstm-t16-h128") {
		t.Fatalf("table missing kernels:\n%s", table)
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var round KernelReport
	if err := json.Unmarshal(js, &round); err != nil {
		t.Fatalf("baseline JSON does not round-trip: %v", err)
	}
	if len(round.Results) != len(rep.Results) {
		t.Fatal("JSON round-trip lost results")
	}
}

// TestKernelReportCompareAndCheck pins the baseline-comparison columns and
// the 10% regression gate on hand-built reports, independent of machine
// speed.
func TestKernelReportCompareAndCheck(t *testing.T) {
	base := &KernelReport{Results: []KernelResult{
		{Kernel: "k", Parallelism: 1, NsPerOp: 1000},
	}}
	rep := &KernelReport{GoMaxProcs: 2, Results: []KernelResult{
		{Kernel: "k", Parallelism: 1, NsPerOp: 500},
		{Kernel: "k", Parallelism: 2, NsPerOp: 400}, // no baseline entry
	}}
	rep.Compare(base)
	if rep.Results[0].BaselineNsPerOp != 1000 || rep.Results[0].SpeedupVsBaseline != 2 {
		t.Fatalf("comparison columns wrong: %+v", rep.Results[0])
	}
	if rep.Results[1].BaselineNsPerOp != 0 {
		t.Fatalf("uncovered pair gained a baseline: %+v", rep.Results[1])
	}
	table := rep.Table()
	if !strings.Contains(table, "base ns/op") || !strings.Contains(table, "2.00x") {
		t.Fatalf("table missing baseline columns:\n%s", table)
	}
	if err := rep.CheckRegression(0.10); err != nil {
		t.Fatalf("improvement flagged as regression: %v", err)
	}

	// Exactly at the limit passes; just past it fails and names the pair.
	atLimit := &KernelReport{GoMaxProcs: 2, Results: []KernelResult{{Kernel: "k", Parallelism: 1, NsPerOp: 1100}}}
	atLimit.Compare(base)
	if err := atLimit.CheckRegression(0.10); err != nil {
		t.Fatalf("exactly +10%% must pass: %v", err)
	}
	over := &KernelReport{GoMaxProcs: 2, Results: []KernelResult{{Kernel: "k", Parallelism: 1, NsPerOp: 1111}}}
	over.Compare(base)
	err := over.CheckRegression(0.10)
	if err == nil || !strings.Contains(err.Error(), "k p=1") {
		t.Fatalf("want regression error naming the pair, got %v", err)
	}

	// A sweep level above the run's GOMAXPROCS is reported but not gated.
	base8 := &KernelReport{Results: []KernelResult{{Kernel: "k", Parallelism: 8, NsPerOp: 1000}}}
	oversub := &KernelReport{GoMaxProcs: 2, Results: []KernelResult{{Kernel: "k", Parallelism: 8, NsPerOp: 1500}}}
	oversub.Compare(base8)
	if err := oversub.CheckRegression(0.10); err != nil {
		t.Fatalf("oversubscribed level gated: %v", err)
	}
	oversub.GoMaxProcs = 8
	if err := oversub.CheckRegression(0.10); err == nil {
		t.Fatal("level within GOMAXPROCS not gated")
	}

	// Without Compare there are no baseline columns, so nothing can fail.
	fresh := &KernelReport{Results: []KernelResult{{Kernel: "k", Parallelism: 1, NsPerOp: 999999}}}
	if err := fresh.CheckRegression(0.10); err != nil {
		t.Fatalf("report without baselines must pass vacuously: %v", err)
	}
}

// TestKernelTableWithoutBaseline: no Compare call, no baseline columns.
func TestKernelTableWithoutBaseline(t *testing.T) {
	rep := &KernelReport{Results: []KernelResult{{Kernel: "k", Parallelism: 1, NsPerOp: 10, Speedup: 1}}}
	if table := rep.Table(); strings.Contains(table, "base ns/op") {
		t.Fatalf("baseline columns rendered without a baseline:\n%s", table)
	}
}

// TestKernelBaselineFormat: the checked-in BENCH_kernels.json, the file `make
// bench-kernels` gates against, decodes into KernelReport with no field left
// over and re-encodes to the same bytes, so the report type and the baseline
// agree field for field.
func TestKernelBaselineFormat(t *testing.T) {
	data, err := os.ReadFile("../../BENCH_kernels.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var rep KernelReport
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("BENCH_kernels.json does not decode into KernelReport: %v", err)
	}
	if len(rep.Results) == 0 {
		t.Fatal("BENCH_kernels.json holds no results")
	}
	js, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(js, data) {
		t.Fatal("BENCH_kernels.json does not re-encode byte-identically from KernelReport")
	}
}
