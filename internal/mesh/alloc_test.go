package mesh

import (
	"testing"

	"gillis/internal/platform"
	"gillis/internal/simnet"
)

// TestRoutedQueryAllocationBudget pins what one mesh-routed query on a
// resident single-function model allocates: the request, the invocation's
// promise, process closure and Ctx, the master's response, group timings and
// resilience tally, and the release callback with its flag. It was 16 with a
// Resource pair per invocation, "invoke:"+name per process, "mesh.hits."+ID
// per hit and nine registry lookups per pass.
func TestRoutedQueryAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget = 9
	var allocs float64
	_, err := platform.Run(meshPlatformCfg(), 1, func(p *platform.Platform, proc *simnet.Proc) error {
		m, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "mobilenet-mini"))
		if err != nil {
			return err
		}
		query := func() {
			b, release, err := m.Acquire(proc, "mobilenet-mini")
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := b.ServeBatch(proc, nil, 1, false); err != nil {
				t.Error(err)
			}
			release()
		}
		query() // the miss that loads the model
		allocs = testing.AllocsPerRun(50, query)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Fatalf("a routed query allocates %v objects, budget %d", allocs, budget)
	}
}
