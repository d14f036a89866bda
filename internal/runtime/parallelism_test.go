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

// serveOnce deploys plan and serves one query, returning the result.
func serveOnce(t *testing.T, units []*partition.Unit, plan *partition.Plan, x *tensor.Tensor, mode ExecMode) Result {
	t.Helper()
	var out Result
	runClient(t, platform.AWSLambda(), 1, func(p *platform.Platform, proc *simnet.Proc) {
		d, err := Deploy(p, units, plan, mode)
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
	want, err := forwardChain(units, x)
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
