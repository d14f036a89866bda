package mesh

import (
	"testing"

	"gillis/internal/platform"
	"gillis/internal/simnet"
)

// TestRoutedQueryAllocationBudget pins what one mesh-routed query on a
// resident single-function model allocates: nothing. The invocation runs on
// a recycled platform.Call, the pass record holds the request, reply and
// resilience tally, and the lease is the model's seat on the instance, made
// with the mesh. It was 6 while the request, the Ctx, the reply, the tally
// and a release closure with its flag were allocated per query, 8 while the
// invocation had a promise and a process closure of its own (it runs on the
// caller's process), and 16 with a Resource pair per invocation,
// "invoke:"+name per process, "mesh.hits."+ID per hit and nine registry
// lookups per pass.
func TestRoutedQueryAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget = 0
	var allocs float64
	_, err := platform.Run(meshPlatformCfg(), 1, func(p *platform.Platform, proc *simnet.Proc) error {
		m, err := New(p, Config{Instances: 1, InstanceMemMB: 64}, catalogSpecs(t, "mobilenet-mini"))
		if err != nil {
			return err
		}
		query := func() {
			b, lease, err := m.Acquire(proc, "mobilenet-mini")
			if err != nil {
				t.Error(err)
				return
			}
			if _, _, err := b.ServeBatch(proc, nil, 1, false); err != nil {
				t.Error(err)
			}
			lease.Release()
		}
		query() // the miss that loads the model
		allocs = testing.AllocsPerRun(50, query)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("%v objects per query", allocs)
	if allocs > budget {
		t.Fatalf("a routed query allocates %v objects, budget %d", allocs, budget)
	}
}
