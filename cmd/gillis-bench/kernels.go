package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"time"

	"gillis/internal/bench"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// The kernel microbenchmark measures the operator forwards the serving
// runtime executes in Real mode, at kernel parallelism 1, 2 and all
// hardware threads. Its JSON output is the checked-in BENCH_kernels.json
// baseline: regressions in single-core speed, multi-core scaling, or
// allocation behaviour show up as diffs against it. It reads the wall
// clock, which is why it lives here and not under internal/, where nothing
// may (nodeterm_test.go at the module root).

// KernelResult is one (kernel, parallelism) measurement. The baseline
// columns are filled in by Compare when a prior BENCH_kernels.json is
// supplied: BaselineNsPerOp is the previous pin's time for the same
// (kernel, parallelism) pair and SpeedupVsBaseline how much faster this run
// is (>1 means improvement).
type KernelResult struct {
	Kernel            string  `json:"kernel"`
	Parallelism       int     `json:"parallelism"`
	NsPerOp           int64   `json:"ns_per_op"`
	AllocsPerOp       int64   `json:"allocs_per_op"`
	BytesPerOp        int64   `json:"bytes_per_op"`
	Speedup           float64 `json:"speedup_vs_serial"`
	BaselineNsPerOp   int64   `json:"baseline_ns_per_op,omitempty"`
	SpeedupVsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// KernelReport is the full sweep plus the hardware context needed to
// interpret it (speedups are meaningless without the core count). The
// planner figure reports in the same form, one row per model at level 1.
type KernelReport struct {
	GoMaxProcs int            `json:"gomaxprocs"`
	Levels     []int          `json:"levels"`
	Results    []KernelResult `json:"results"`
	// title heads the table; it is not part of the JSON form.
	title string
}

// kernelCase is one op + input to sweep.
type kernelCase struct {
	name string
	op   nn.Op
	in   *tensor.Tensor
}

func kernelCases() []kernelCase {
	rng := rand.New(rand.NewSource(1))
	mk := func(op nn.Op) nn.Op {
		op.Init(rng)
		return op
	}
	return []kernelCase{
		{"conv3x3-c32-28x28", mk(nn.NewConv2D("c", 32, 32, 3, 1, 1)), tensor.Rand(rng, 1, 32, 28, 28)},
		{"conv3x3-c128-14x14", mk(nn.NewConv2D("cw", 128, 128, 3, 1, 1)), tensor.Rand(rng, 1, 128, 14, 14)},
		// The four resnet34 stages at 224×224: im2col matrices of 7 MB down
		// to 1 MB that do not fit the cache the two cases above run out of,
		// from many columns and few rows to 49 columns and 512 rows.
		{"conv7x7s2-c3-64-224x224", mk(nn.NewConv2D("s", 3, 64, 7, 2, 3)), tensor.Rand(rng, 1, 3, 224, 224)},
		{"conv3x3-c64-56x56", mk(nn.NewConv2D("l1", 64, 64, 3, 1, 1)), tensor.Rand(rng, 1, 64, 56, 56)},
		{"conv3x3-c256-14x14", mk(nn.NewConv2D("l3", 256, 256, 3, 1, 1)), tensor.Rand(rng, 1, 256, 14, 14)},
		{"conv3x3-c512-7x7", mk(nn.NewConv2D("l4", 512, 512, 3, 1, 1)), tensor.Rand(rng, 1, 512, 7, 7)},
		{"depthwise3x3-c64-28x28", mk(nn.NewDepthwiseConv2D("d", 64, 3, 1, 1)), tensor.Rand(rng, 1, 64, 28, 28)},
		{"dense-2048x1000", mk(nn.NewDense("fc", 2048, 1000)), tensor.Rand(rng, 1, 2048)},
		{"lstm-t16-h128", mk(nn.NewLSTM("l", 128, 128)), tensor.Rand(rng, 1, 16, 128)},
		// What runs between the GEMM tiles of a served resnet34: its one
		// max-pool, the small CNN's, and a stride-2 convolution, whose packer
		// gathers every other input pixel.
		{"maxpool3x3s2-c64-112x112", nn.NewMaxPool2D("mp", 3, 2, 1), tensor.Rand(rng, 1, 64, 112, 112)},
		{"maxpool2x2s2-c16-32x32", nn.NewMaxPool2D("mps", 2, 2, 0), tensor.Rand(rng, 1, 16, 32, 32)},
		{"conv3x3s2-c64-128-56x56", mk(nn.NewConv2D("l2", 64, 128, 3, 2, 1)), tensor.Rand(rng, 1, 64, 56, 56)},
	}
}

// kernelLevels returns the fixed parallelism sweep {1, 2, 4, 8}. The levels
// are pinned rather than GOMAXPROCS-derived so the checked-in baseline has
// the same shape on every machine: par.SetParallelism oversubscribes
// freely, and the fixed-order accumulation contract makes oversubscription
// bitwise safe, so running 8 workers on a single core only costs scheduling
// overhead.
func kernelLevels() []int {
	return []int{1, 2, 4, 8}
}

// measure times f for at least minDuration (and 5 iterations), after two
// warm-up calls, returning ns/op and per-op allocation deltas.
func measure(f func() error, minDuration time.Duration) (nsPerOp, allocsPerOp, bytesPerOp int64, err error) {
	for i := 0; i < 2; i++ { // warm up the scratch arena
		if err = f(); err != nil {
			return 0, 0, 0, err
		}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for time.Since(start) < minDuration || iters < 5 {
		if err = f(); err != nil {
			return 0, 0, 0, err
		}
		iters++
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	n := int64(iters)
	return elapsed.Nanoseconds() / n,
		int64(after.Mallocs-before.Mallocs) / n,
		int64(after.TotalAlloc-before.TotalAlloc) / n,
		nil
}

// measureMedian measures f over several passes and returns the median pass:
// the median tracks typical machine performance instead of a lucky burst
// window, so a baseline pinned from it is one a later check run can actually
// reproduce within the 10% regression gate. Quick mode trims the
// per-measurement budget to one short pass, test-suite friendly.
func measureMedian(c *bench.Context, f func() error) (nsPerOp, allocsPerOp, bytesPerOp int64, err error) {
	budget, passes := 500*time.Millisecond, 5
	if c.Quick {
		budget, passes = 20*time.Millisecond, 1
	}
	type pass struct{ ns, allocs, bytes int64 }
	samples := make([]pass, passes)
	for i := range samples {
		s := &samples[i]
		if s.ns, s.allocs, s.bytes, err = measure(f, budget); err != nil {
			return 0, 0, 0, err
		}
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].ns < samples[j].ns })
	med := samples[len(samples)/2]
	return med.ns, med.allocs, med.bytes, nil
}

// kernels runs the kernel microbenchmark sweep, each (kernel, level) pair
// the median of several passes.
func kernels(c *bench.Context) (*KernelReport, error) {
	report := &KernelReport{title: "Kernel forwards", GoMaxProcs: runtime.GOMAXPROCS(0), Levels: kernelLevels()}
	for _, kc := range kernelCases() {
		forward := func() error {
			_, err := kc.op.Forward(kc.in)
			return err
		}
		var serialNs int64
		for _, p := range report.Levels {
			restore := par.SetParallelism(p)
			nsOp, allocs, bytes, err := measureMedian(c, forward)
			restore()
			if err != nil {
				return nil, fmt.Errorf("kernel %s p=%d: %w", kc.name, p, err)
			}
			if p == 1 {
				serialNs = nsOp
			}
			speedup := 0.0
			if nsOp > 0 && serialNs > 0 {
				speedup = float64(serialNs) / float64(nsOp)
			}
			report.Results = append(report.Results, KernelResult{
				Kernel:      kc.name,
				Parallelism: p,
				NsPerOp:     nsOp,
				AllocsPerOp: allocs,
				BytesPerOp:  bytes,
				Speedup:     speedup,
			})
		}
	}
	return report, nil
}

// Compare annotates r's results with before/after columns against a prior
// baseline report: every (kernel, parallelism) pair present in both gets
// the baseline's ns/op and this run's speedup relative to it. Pairs the
// baseline does not cover (new kernels, new sweep levels) are left blank.
func (r *KernelReport) Compare(baseline *KernelReport) {
	prior := make(map[string]int64, len(baseline.Results))
	for _, b := range baseline.Results {
		prior[fmt.Sprintf("%s|%d", b.Kernel, b.Parallelism)] = b.NsPerOp
	}
	for i := range r.Results {
		res := &r.Results[i]
		if ns, ok := prior[fmt.Sprintf("%s|%d", res.Kernel, res.Parallelism)]; ok && ns > 0 && res.NsPerOp > 0 {
			res.BaselineNsPerOp = ns
			res.SpeedupVsBaseline = float64(ns) / float64(res.NsPerOp)
		}
	}
}

// CheckRegression returns an error naming every measurement whose ns/op
// regressed more than tolerance (fractional: 0.10 means 10%) against its
// baseline column. Results without a baseline entry are skipped — a new
// kernel or sweep level cannot regress — and so are sweep levels above this
// run's GOMAXPROCS: oversubscribed workers time-share the cores, and their
// rows move 20-50% run to run on code nobody touched. Call Compare first.
func (r *KernelReport) CheckRegression(tolerance float64) error {
	var bad []string
	for _, res := range r.Results {
		if res.BaselineNsPerOp <= 0 || res.Parallelism > r.GoMaxProcs {
			continue
		}
		limit := float64(res.BaselineNsPerOp) * (1 + tolerance)
		if float64(res.NsPerOp) > limit {
			pct := 100 * (float64(res.NsPerOp)/float64(res.BaselineNsPerOp) - 1)
			bad = append(bad, fmt.Sprintf("%s p=%d: %d ns/op vs baseline %d (+%.1f%%)",
				res.Kernel, res.Parallelism, res.NsPerOp, res.BaselineNsPerOp, pct))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("kernel ns/op regressed more than %.0f%%:\n  %s",
			tolerance*100, strings.Join(bad, "\n  "))
	}
	return nil
}

// Table renders the sweep in the same tabular style as the figure runners.
// Baseline columns appear only when Compare filled them in.
func (r *KernelReport) Table() string {
	hasBase := false
	for _, res := range r.Results {
		if res.BaselineNsPerOp > 0 {
			hasBase = true
			break
		}
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s (GOMAXPROCS=%d)\n", r.title, r.GoMaxProcs)
	fmt.Fprintf(&sb, "%-24s %4s %12s %9s %11s %12s", "case", "p", "ns/op", "speedup", "allocs/op", "bytes/op")
	if hasBase {
		fmt.Fprintf(&sb, " %12s %9s", "base ns/op", "vs base")
	}
	sb.WriteByte('\n')
	for _, res := range r.Results {
		fmt.Fprintf(&sb, "%-24s %4d %12d %8.2fx %11d %12d",
			res.Kernel, res.Parallelism, res.NsPerOp, res.Speedup, res.AllocsPerOp, res.BytesPerOp)
		if hasBase {
			if res.BaselineNsPerOp > 0 {
				fmt.Fprintf(&sb, " %12d %8.2fx", res.BaselineNsPerOp, res.SpeedupVsBaseline)
			} else {
				fmt.Fprintf(&sb, " %12s %9s", "-", "-")
			}
		}
		sb.WriteByte('\n')
	}
	return strings.TrimRight(sb.String(), "\n")
}

// JSON renders the report as the BENCH_kernels.json baseline format.
func (r *KernelReport) JSON() ([]byte, error) { return bench.BaselineJSON(r) }
