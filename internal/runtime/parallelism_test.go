package runtime

import (
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// serveOnce deploys the mixed plan with the given options and serves one
// query, returning the result.
func serveOnce(t *testing.T, units []*partition.Unit, plan *partition.Plan, x *tensor.Tensor, mode ExecMode, opts ...DeployOption) Result {
	t.Helper()
	var out Result
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, mode, opts...)
		if err != nil {
			t.Error(err)
			return
		}
		if err := d.Prewarm(); err != nil {
			t.Error(err)
			return
		}
		res, err := d.Serve(proc, x)
		if err != nil {
			t.Error(err)
			return
		}
		out = res
	})
	return out
}

// TestParallelismPreservesOutputsBitwise is the serving-level statement of
// the kernel determinism invariant: whatever width the process runs its
// kernels at (par.SetParallelism — a deployment has no width of its own),
// a served query produces exactly the bytes the monolithic forward does.
func TestParallelismPreservesOutputsBitwise(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	x := tensor.Rand(rand.New(rand.NewSource(11)), 1, 3, 24, 24)
	want, err := partition.ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 6} {
		restore := par.SetParallelism(workers)
		res := serveOnce(t, units, plan, x, Real)
		restore()
		if len(res.Outputs) != 1 || !tensor.Equal(res.Outputs[0], want) {
			t.Fatalf("parallelism %d: fork-join output diverged from monolithic execution", workers)
		}
	}
}

// TestParallelismSpeedsUpSimulatedCompute checks the modeled side of the
// knob: more vCPUs per instance must strictly reduce simulated latency, and
// never below the Amdahl bound.
func TestParallelismSpeedsUpSimulatedCompute(t *testing.T) {
	units := tinyCNN(t)
	plan := mixedPlan(t, units)
	lat1 := serveOnce(t, units, plan, nil, ShapeOnly, WithParallelism(1)).LatencyMs
	lat4 := serveOnce(t, units, plan, nil, ShapeOnly, WithParallelism(4)).LatencyMs
	if lat1 <= 0 || lat4 <= 0 {
		t.Fatalf("bad latencies: %v, %v", lat1, lat4)
	}
	if lat4 >= lat1 {
		t.Fatalf("4 vCPUs (%.3f ms) must beat 1 vCPU (%.3f ms)", lat4, lat1)
	}
	var o deployOpts
	WithParallelism(4)(&o)
	if ratio := lat1 / lat4; ratio > o.speedup() {
		t.Fatalf("latency ratio %.2f exceeds the Amdahl speedup bound %.2f (network/dispatch must not scale)", ratio, o.speedup())
	}
}

// TestWithParallelismIgnoresNonPositive pins the "unspecified" default.
func TestWithParallelismIgnoresNonPositive(t *testing.T) {
	var o deployOpts
	WithParallelism(0)(&o)
	WithParallelism(-3)(&o)
	if o.parallelism != 0 {
		t.Fatalf("non-positive vCPU counts must be ignored, got %d", o.parallelism)
	}
	if o.speedup() != 1 {
		t.Fatalf("unspecified parallelism must not rescale compute, got %v", o.speedup())
	}
}
