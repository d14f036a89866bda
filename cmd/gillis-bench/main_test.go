package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleFigure(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-figs", "14", "-quick", "-queries", "10"}, &buf)
	if err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Fig 14") || !strings.Contains(out, "regenerated in") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

// TestRunWritesOutputFile: -out holds the tables and nothing that varies from
// run to run (BENCH_paper.txt is such a file), so the wall-clock line is on
// stdout only and a second run writes the same bytes.
func TestRunWritesOutputFile(t *testing.T) {
	var files [2][]byte
	for i := range files {
		path := filepath.Join(t.TempDir(), "tables.txt")
		var buf bytes.Buffer
		if err := run([]string{"-figs", "12,14", "-quick", "-out", path}, &buf); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(buf.String(), "Fig 14") || !strings.Contains(buf.String(), "regenerated in") {
			t.Fatalf("stdout missing table or timing line:\n%s", buf.String())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "Fig 12") || !strings.Contains(string(data), "Fig 14") {
			t.Fatalf("-out missing a table:\n%s", data)
		}
		if strings.Contains(string(data), "regenerated in") {
			t.Fatalf("-out carries a wall-clock line:\n%s", data)
		}
		files[i] = data
	}
	if !bytes.Equal(files[0], files[1]) {
		t.Fatalf("-out differs between two runs:\n%s\n---\n%s", files[0], files[1])
	}
}

// TestRunUnknownFigureIsAnError: a -figs id the registry does not have — a
// typo, or loadsweep from before it became load — is refused with the valid
// ids, before any figure runs.
func TestRunUnknownFigureIsAnError(t *testing.T) {
	for _, figs := range []string{"999", "14,laod", "loadsweep", ""} {
		var buf bytes.Buffer
		err := run([]string{"-figs", figs, "-quick"}, &buf)
		if err == nil || !strings.Contains(err.Error(), "unknown figure") || !strings.Contains(err.Error(), "ablations") {
			t.Errorf("-figs %q: want an unknown-figure error listing the valid ids, got %v", figs, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-figs %q: figures ran before the refusal:\n%s", figs, buf.String())
		}
	}
}

// TestRunKernelsFlagsNeedKernelsFigure: the kernel gate passes vacuously if
// the kernels figure never runs, so its flags are refused without it.
func TestRunKernelsFlagsNeedKernelsFigure(t *testing.T) {
	base := filepath.Join(t.TempDir(), "BENCH_kernels.json")
	for _, args := range [][]string{
		{"-figs", "1", "-quick", "-kernels-baseline", base, "-kernels-check"},
		{"-figs", "1", "-quick", "-kernels-baseline", base},
	} {
		var buf bytes.Buffer
		err := run(args, &buf)
		if err == nil || !strings.Contains(err.Error(), "select kernels") {
			t.Errorf("%v: want a needs-kernels error, got %v", args, err)
		}
		if buf.Len() != 0 {
			t.Errorf("%v: figures ran before the refusal:\n%s", args, buf.String())
		}
	}
}

func TestFiguresListComplete(t *testing.T) {
	ids := map[string]bool{}
	for _, f := range figures() {
		ids[f.id] = true
	}
	for _, want := range []string{"1", "7", "9", "10", "11", "12", "13", "14", "15", "ablations", "burst", "load", "kernels", "chaos", "adapt", "batch", "mesh"} {
		if !ids[want] {
			t.Errorf("figure %s missing from registry", want)
		}
	}
	if len(ids) != 17 {
		t.Errorf("registry has %d figures, want 17: %v", len(ids), ids)
	}
}

func TestRunKernelsWritesJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_kernels.json")
	var buf bytes.Buffer
	if err := run([]string{"-figs", "kernels", "-quick", "-json", path, "-parallelism", "2"}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Kernel forwards") {
		t.Fatalf("stdout missing kernels table:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"gomaxprocs\"") || !strings.Contains(string(data), "conv3x3-c32-28x28") {
		t.Fatalf("baseline JSON malformed:\n%s", data)
	}
}

func TestRunWritesProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	var buf bytes.Buffer
	if err := run([]string{"-figs", "14", "-quick", "-queries", "5", "-cpuprofile", cpu, "-memprofile", mem}, &buf); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatal(err)
		}
		if st.Size() == 0 {
			t.Fatalf("profile %s is empty", p)
		}
	}
}

func TestRunChaosWritesJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_chaos.json")
	var buf bytes.Buffer
	if err := run([]string{"-figs", "chaos", "-quick", "-faults", "0.05", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Chaos sweep") {
		t.Fatalf("stdout missing chaos table:\n%s", buf.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"\"goodput\"", "\"fault_rate\": 0.05", "\"resilient\""} {
		if !strings.Contains(string(data), want) {
			t.Fatalf("baseline JSON missing %s:\n%s", want, data)
		}
	}
}

func TestParseRates(t *testing.T) {
	rates, err := parseRates("0.02, 0.1")
	if err != nil || len(rates) != 2 || rates[0] != 0.02 || rates[1] != 0.1 {
		t.Fatalf("parseRates: %v %v", rates, err)
	}
	for _, bad := range []string{"", "x", "-0.1", "1.5"} {
		if _, err := parseRates(bad); err == nil {
			t.Errorf("parseRates(%q) should fail", bad)
		}
	}
}

func TestRunLoadWritesJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_load.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figs", "load", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Load sweep") || !strings.Contains(out, "burst-aware") {
		t.Fatalf("stdout missing load sweep table:\n%s", out)
	}
	if strings.Contains(out, "Fig") {
		t.Fatal("-figs load must run nothing else")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"slo_pct\"") || !strings.Contains(string(data), "\"cost_inflation\"") {
		t.Fatalf("baseline JSON malformed:\n%s", data)
	}
}

// TestRunAdaptWritesJSONBaseline drives the adaptive scenario as a figure:
// the table and headline print, no other figure runs, and the JSON baseline
// carries the headline comparison.
func TestRunAdaptWritesJSONBaseline(t *testing.T) {
	path := filepath.Join(t.TempDir(), "BENCH_adapt.json")
	var buf bytes.Buffer
	if err := run([]string{"-quick", "-figs", "adapt", "-json", path}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Adaptive serving") || !strings.Contains(out, "headline:") {
		t.Fatalf("stdout missing adaptive scenario table:\n%s", out)
	}
	if strings.Contains(out, "Fig") {
		t.Fatal("-figs adapt must run nothing else")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"adaptive_slo_pct\"") || !strings.Contains(string(data), "\"baseline_bit_exact\"") {
		t.Fatalf("baseline JSON malformed:\n%s", data)
	}
}

// TestRunKernelsBaselineCheck drives the -kernels-baseline/-kernels-check
// gate deterministically: a baseline with absurdly slow pins always passes,
// one with impossibly fast pins always fails (twice — once on the first
// sweep, once on the noise-retry sweep).
func TestRunKernelsBaselineCheck(t *testing.T) {
	dir := t.TempDir()
	pin := filepath.Join(dir, "pin.json")
	var buf bytes.Buffer
	if err := run([]string{"-figs", "kernels", "-quick", "-json", pin}, &buf); err != nil {
		t.Fatal(err)
	}
	rewrite := func(path string, ns int64) string {
		base, err := readKernelBaseline(pin)
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Results {
			base.Results[i].NsPerOp = ns
		}
		js, err := base.JSON()
		if err != nil {
			t.Fatal(err)
		}
		out := filepath.Join(dir, path)
		if err := os.WriteFile(out, js, 0o644); err != nil {
			t.Fatal(err)
		}
		return out
	}

	slow := rewrite("slow.json", 1<<40)
	buf.Reset()
	if err := run([]string{"-figs", "kernels", "-quick", "-kernels-baseline", slow, "-kernels-check"}, &buf); err != nil {
		t.Fatalf("check against a slower baseline must pass: %v", err)
	}
	if !strings.Contains(buf.String(), "no ns/op regression") || !strings.Contains(buf.String(), "base ns/op") {
		t.Fatalf("missing check verdict or baseline columns:\n%s", buf.String())
	}

	fast := rewrite("fast.json", 1)
	buf.Reset()
	err := run([]string{"-figs", "kernels", "-quick", "-kernels-baseline", fast, "-kernels-check"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "regressed more than 10%") {
		t.Fatalf("check against an impossibly fast baseline must fail, got %v", err)
	}
	if !strings.Contains(buf.String(), "re-measuring once") {
		t.Fatalf("gate must retry before failing:\n%s", buf.String())
	}
}

// TestRunKernelsCheckRequiresBaseline: the gate has nothing to compare
// against without -kernels-baseline.
func TestRunKernelsCheckRequiresBaseline(t *testing.T) {
	var buf bytes.Buffer
	err := run([]string{"-figs", "kernels", "-quick", "-kernels-check"}, &buf)
	if err == nil || !strings.Contains(err.Error(), "-kernels-baseline") {
		t.Fatalf("want missing-baseline error, got %v", err)
	}
}

// TestReadKernelBaselineErrors covers the two failure shapes: missing file
// and malformed JSON.
func TestReadKernelBaselineErrors(t *testing.T) {
	if _, err := readKernelBaseline(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Fatal("missing baseline file must error")
	}
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readKernelBaseline(bad); err == nil {
		t.Fatal("malformed baseline JSON must error")
	}
}

// TestJSONNeedsOneFigureWithAJSONForm: -json names one file, so it is refused
// — before anything runs — unless -figs selects exactly one figure and that
// figure has a JSON form.
func TestJSONNeedsOneFigureWithAJSONForm(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	for _, figs := range []string{"chaos,mesh", "14"} {
		var buf bytes.Buffer
		err := run([]string{"-figs", figs, "-quick", "-json", path}, &buf)
		if err == nil || !strings.Contains(err.Error(), "-json") {
			t.Errorf("-figs %s -json: want a -json error, got %v", figs, err)
		}
		if buf.Len() != 0 {
			t.Errorf("-figs %s -json: figures ran before the refusal:\n%s", figs, buf.String())
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("-figs %s -json: wrote %s", figs, path)
		}
	}
}
