package runtime

import (
	"fmt"

	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

// Switcher serves queries through one of several co-deployed plans of the
// same model and hot-swaps the active plan between queries. All candidate
// deployments are registered up front on the same platform (registration
// does no RNG draws and costs no virtual time, so co-deploying candidates
// leaves a replay bit-identical to deploying only the active one); a swap
// is just an index change, taking effect at the next query. The adaptive
// controller drives Switch along its degradation ladder.
type Switcher struct {
	deps   []*Deployment
	active int
}

// NewSwitcher creates a switcher over one or more deployments of the same
// model on the same platform; the first is active.
func NewSwitcher(deps ...*Deployment) (*Switcher, error) {
	if len(deps) == 0 {
		return nil, fmt.Errorf("runtime: switcher needs at least one deployment")
	}
	for i, d := range deps[1:] {
		if d.p != deps[0].p {
			return nil, fmt.Errorf("runtime: switcher deployment %d is on a different platform", i+1)
		}
	}
	return &Switcher{deps: append([]*Deployment(nil), deps...)}, nil
}

// Add registers another candidate deployment (e.g. a freshly re-planned
// one) and returns its index. It does not activate it.
func (s *Switcher) Add(d *Deployment) (int, error) {
	if d.p != s.deps[0].p {
		return 0, fmt.Errorf("runtime: switcher add: deployment is on a different platform")
	}
	s.deps = append(s.deps, d)
	return len(s.deps) - 1, nil
}

// Len returns the number of candidate deployments.
func (s *Switcher) Len() int { return len(s.deps) }

// Active returns the index of the deployment currently serving.
func (s *Switcher) Active() int { return s.active }

// Switch makes candidate i the active deployment for subsequent queries.
// In-flight queries finish on the plan they started on.
func (s *Switcher) Switch(i int) error {
	if i < 0 || i >= len(s.deps) {
		return fmt.Errorf("runtime: switch to unknown deployment %d (have %d)", i, len(s.deps))
	}
	s.active = i
	return nil
}

// current is the active deployment.
func (s *Switcher) current() *Deployment { return s.deps[s.active] }

// Platform returns the shared platform.
func (s *Switcher) Platform() *platform.Platform { return s.deps[0].p }

// ServeBatch executes one fork-join pass on the active deployment.
func (s *Switcher) ServeBatch(proc *simnet.Proc, inputs []*tensor.Tensor, size int, traced bool) (Result, *trace.Trace, error) {
	return s.current().ServeBatch(proc, inputs, size, traced)
}

// WarmSets reports the active deployment's standing warm sets.
func (s *Switcher) WarmSets() int { return s.current().WarmSets() }

// Prewarm warms the active deployment's function set.
func (s *Switcher) Prewarm() error { return s.current().Prewarm() }

// SetHedging applies the hedging kill-switch to every candidate, so a
// brownout engaged on one plan persists across switches.
func (s *Switcher) SetHedging(enabled bool) {
	for _, d := range s.deps {
		d.SetHedging(enabled)
	}
}
