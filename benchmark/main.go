// Command benchmark is the repo's wall-clock benchmark: four workloads, six
// end-to-end metrics each, per-layer probes and a traced run. README.md in
// this directory defines every name it prints.
//
//	run.sh --workload W --seed N --seconds S --trace 0   one workload, end-to-end metrics
//	run.sh --workload W --seed N --seconds S --trace 1   traced run, per-layer metrics
//	run.sh [-seed N] [-seconds S] [-trace 1] [-spans F]  all four workloads (+ traced run)
//	run.sh -aa N                                         A/A: two sets of N full runs
//	run.sh -selftest                                     arithmetic checks + 1 s smokes
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Name  string  `json:"-"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the object a single-workload run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

var workloadNames = []string{"http_small", "http_resnet34", "sim_replay", "sim_mesh"}

// endToEnd lists the end-to-end metrics with the bound by which each may
// worsen before a change counts as a regression; BENCHMARK.json repeats it.
// The bounds are three times the run-to-run spread measured on the 2-vCPU
// guest the benchmark was written on (README.md, "Bounds"), capped at the
// 0.25 the benchmark contract allows.
var endToEnd = []struct {
	name, unit string
	bound      float64
}{
	{"setup_s", "s", 0.25},
	{"ops_per_s", "1/s", 0.25},
	{"op_p50_ms", "ms", 0.25},
	{"op_p90_ms", "ms", 0.25},
	{"cpu_ms_per_op", "ms", 0.25},
	{"peak_rss_mb", "MB", 0.25},
}

type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	spans     string
	serverBin string
	tmpDir    string
}

func main() {
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload in this process: "+strings.Join(workloadNames, ", ")+" (default: all four, each in a child process)")
	flag.Int64Var(&o.seed, "seed", goldenSeed, "seed for input tensors and arrival traces")
	flag.Float64Var(&o.seconds, "seconds", 25, "length of the timed phase")
	flag.IntVar(&o.trace, "trace", 0, "1: traced run, prints per-layer metrics instead of end-to-end ones")
	flag.StringVar(&o.spans, "spans", "", "with -trace 1: write the recorded spans to this file as JSON")
	flag.StringVar(&o.serverBin, "server", filepath.Join(filepath.Dir(exe), "gillis-server"), "built cmd/gillis-server")
	flag.StringVar(&o.tmpDir, "tmp", filepath.Dir(exe), "directory under which the run's temp dir is made")
	aa := flag.Int("aa", 0, "A/A mode: run the full benchmark N times as set 1, then N times as set 2, and compare")
	selftest := flag.Bool("selftest", false, "check the benchmark's own arithmetic and smoke every workload for 1 s")
	flag.Parse()
	if flag.NArg() > 0 || (o.trace != 0 && o.trace != 1) || o.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	if o.workload != "" && !slices.Contains(workloadNames, o.workload) {
		fatal(fmt.Errorf("unknown workload %q", o.workload))
	}

	dir, err := os.MkdirTemp(o.tmpDir, "run-")
	if err != nil {
		fatal(err)
	}
	o.tmpDir, runDir = dir, dir
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanup(dir)
		os.Exit(130)
	}()

	var code int
	switch {
	case *selftest:
		code = runSelftest(o)
	case *aa > 0:
		code = runAA(exe, o, *aa)
	case o.workload == "":
		code = runAll(exe, o)
	case o.trace == 1:
		code = runTraced(o)
	default:
		code = runWorkload(o)
	}
	cleanup(dir)
	os.Exit(code)
}

// runDir is the run's temp dir, once made.
var runDir string

// fatal reports err, cleans up and exits: no result line is printed.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	if runDir != "" {
		cleanup(runDir)
	}
	os.Exit(1)
}

// liveServers tracks running gillis-server children so that cleanup can
// stop them on a signal as well as on a normal exit.
var liveServers struct {
	mu    sync.Mutex
	procs []*serverProc
}

func addLiveServer(p *serverProc) {
	liveServers.mu.Lock()
	defer liveServers.mu.Unlock()
	liveServers.procs = append(liveServers.procs, p)
}

func removeLiveServer(p *serverProc) {
	liveServers.mu.Lock()
	defer liveServers.mu.Unlock()
	liveServers.procs = slices.DeleteFunc(liveServers.procs, func(q *serverProc) bool { return q == p })
}

// cleanup stops every child still running and removes the temp dir (the
// model files with it).
func cleanup(dir string) {
	liveServers.mu.Lock()
	procs := slices.Clone(liveServers.procs)
	liveServers.mu.Unlock()
	for _, p := range procs {
		p.stop()
	}
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
}

func newSUT(name string, o options, traced bool) (sut, error) {
	switch name {
	case "sim_replay":
		return newSimReplay(o.seed)
	case "sim_mesh":
		return newSimMesh(o.seed)
	default:
		return newHTTPServing(name, o.seed, o.serverBin, o.tmpDir, traced)
	}
}

// runWorkload is the untraced single-workload run: five cold set-ups, the
// timed phase, the six end-to-end metrics.
func runWorkload(o options) int {
	w, err := newSUT(o.workload, o, false)
	if err != nil {
		fatal(err)
	}
	setupNorm, setupRaw, err := measureSetups(w, setups)
	if err != nil {
		fatal(err)
	}
	slices, err := timedPhase(w, o.workload, time.Duration(o.seconds*float64(time.Second)), sliceDur, nil)
	if err != nil {
		fatal(err)
	}
	rss, err := w.peakRSSMB()
	if err != nil {
		fatal(err)
	}
	w.stop()

	s := summarize(slices, false)
	values := []float64{median(setupNorm), s.opsPerS, s.p50Ms, s.p90Ms, s.cpuMsOp, rss}
	res := result{Correct: s.failed == 0, Attempted: s.ops + s.failed, Failed: s.failed, Metrics: map[string]metric{}}
	fmt.Printf("workload %s  seed %d  %d clients closed loop  %d slices  %d ops (%d latency samples)  %d failed\n",
		o.workload, o.seed, clients(), len(slices), s.ops+s.failed, s.ops, s.failed)
	for i, m := range endToEnd {
		res.Metrics[m.name] = metric{Value: values[i], Unit: m.unit}
		fmt.Printf("  %-16s %12.4f %s\n", m.name, values[i], m.unit)
	}
	fmt.Printf("  raw (not normalised): setup_s %.4f  ops_per_s %.4f  op_p50_ms %.4f\n", median(setupRaw), s.rawOpsPerS, s.rawP50Ms)
	fmt.Printf("  host: calibration %.3f ms (reference %.3f), speed %.3f..%.3f of reference\n", s.calMs, calRefMs, s.speedMin, s.speedMax)
	if s.firstErr != nil {
		fmt.Printf("  first failure: %v\n", s.firstErr)
	}
	return printResult(res)
}

// printResult prints the result object as the last line and returns the
// exit code: wrong output is a failure of the run.
func printResult(res result) int {
	b, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// runChild runs one single-workload run in a fresh process and returns its
// result object. The child's report is copied to report.
func runChild(exe string, o options, workload string, seed int64, trace int, report io.Writer) (result, error) {
	args := []string{
		"-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(o.seconds),
		"-trace", fmt.Sprint(trace), "-server", o.serverBin, "-tmp", o.tmpDir,
	}
	if trace == 1 && o.spans != "" {
		args = append(args, "-spans", o.spans)
	}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = os.Stderr
	// A child told that its parent died cleans up as it does on a signal.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGTERM}
	out, err := cmd.Output()
	_, _ = report.Write(out) // a lost copy of the report does not change the result
	var res result
	if err != nil {
		return res, fmt.Errorf("%s seed %d: %w", workload, seed, err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("%s seed %d: result line: %w", workload, seed, err)
	}
	return res, nil
}

// runAll runs the four workloads, each in a child process of its own so
// that peak RSS and GC state do not leak between them, then the traced run
// if asked, and ends with a summary object.
func runAll(exe string, o options) int {
	summary := struct {
		Seed      int64             `json:"seed"`
		Seconds   float64           `json:"seconds"`
		Workloads map[string]result `json:"workloads"`
		PerLayer  *result           `json:"per_layer,omitempty"`
		// The benchmark measures; it claims no gain.
		Claim *string `json:"claim"`
	}{Seed: o.seed, Seconds: o.seconds, Workloads: map[string]result{}}
	code := 0
	for _, name := range workloadNames {
		res, err := runChild(exe, o, name, o.seed, 0, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
		summary.Workloads[name] = res
	}
	if o.trace == 1 {
		// The traced run covers all four workloads whichever is named.
		res, err := runChild(exe, o, workloadNames[0], o.seed, 1, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			code = 1
		}
		summary.PerLayer = &res
	}
	b, err := json.Marshal(summary)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
	return code
}
