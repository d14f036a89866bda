package simnet

import (
	"fmt"
	"time"
)

// At schedules fn to run at the given absolute virtual time (which must not
// be in the past), between processes: it queues a process whose body calls
// fn, as Go would. fn has no Proc, so it cannot park. The kernel and
// order-pin tests use it to act between processes.
func (e *Env) At(t time.Duration, fn func()) error {
	if t < e.now {
		return fmt.Errorf("simnet: cannot schedule at %v, now is %v", t, e.now)
	}
	e.spawn(t, "at", func(*Proc) { fn() })
	return nil
}
