package simnet

import (
	"fmt"
	"time"
)

// At schedules fn to run on Run's goroutine, between processes, at the
// given absolute virtual time (which must not be in the past). fn must not
// park. The kernel and order-pin tests use it to act between processes.
func (e *Env) At(t time.Duration, fn func()) error {
	if t < e.now {
		return fmt.Errorf("simnet: cannot schedule at %v, now is %v", t, e.now)
	}
	e.push(event{at: t, fn: fn})
	return nil
}
