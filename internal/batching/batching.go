// Package batching implements the gateway's admission-side batch former: a
// pure, deterministic state machine deciding when a forming batch of
// queries closes and is handed to the serving backend. The four closing
// rules (§"Cross-query batching", DESIGN.md §13):
//
//   - Size: the batch reaches MaxBatch members — closed at admission time.
//   - SLO deadline: waiting one more control tick would push the oldest
//     member past its SLO even if the batch served immediately (requires
//     SLOMs and EstServeMs) — closed on the control tick.
//   - Delay: the oldest member has waited MaxDelay — closed on the control
//     tick.
//   - Drain: the arrival trace is exhausted, so no future query can top the
//     batch up — closed on the control tick.
//
// The former never reads a clock: every decision is a function of the
// virtual times passed in, so replays are bit-exact at any parallelism
// level. The package is simnet-clocked (enforced by the nodeterm analyzer).
package batching

import (
	"fmt"
	"time"
)

// Config parameterizes the former.
type Config struct {
	// MaxBatch is the maximum queries per batch; at least 2 (a gateway
	// with MaxBatch <= 1 never constructs a former).
	MaxBatch int
	// MaxDelay bounds how long the oldest member waits before the batch
	// closes regardless of size. Required.
	MaxDelay time.Duration
	// SLOMs, when positive together with EstServeMs, enables SLO-deadline
	// closing: the batch closes as soon as serving any later would break
	// the oldest member's SLO.
	SLOMs float64
	// EstServeMs estimates the batched serve latency used by the SLO rule.
	EstServeMs float64
}

// TickMs is the gateway's control interval in milliseconds of virtual time:
// the autoscaling policy, the adaptive controller and the former's delay and
// SLO rules all run once per tick. The SLO rule closes one tick early so the
// batch is dispatched before the deadline, not discovered past it.
const TickMs = 100

// CloseReason says which rule closed a batch.
type CloseReason int

// Closing rules, in precedence order at a tick (size closes at admission).
const (
	ReasonNone CloseReason = iota
	ReasonSize
	ReasonSLO
	ReasonDelay
	ReasonDrain
)

// String implements fmt.Stringer; the strings appear in LoadReports.
func (r CloseReason) String() string {
	switch r {
	case ReasonSize:
		return "size"
	case ReasonSLO:
		return "slo"
	case ReasonDelay:
		return "delay"
	case ReasonDrain:
		return "drain"
	default:
		return "none"
	}
}

// Member is one query waiting in a forming batch.
type Member struct {
	// ID is the query's index in the arrival trace.
	ID int
	// Arrival is the query's arrival instant on the virtual clock.
	Arrival time.Duration
}

// Former accumulates members until a closing rule fires. Not
// goroutine-safe: the gateway drives it under its own lock.
type Former struct {
	cfg     Config
	members []Member
}

// New validates cfg and returns an empty former.
func New(cfg Config) (*Former, error) {
	if cfg.MaxBatch < 2 {
		return nil, fmt.Errorf("batching: MaxBatch %d, need at least 2", cfg.MaxBatch)
	}
	if cfg.MaxDelay <= 0 {
		return nil, fmt.Errorf("batching: MaxDelay must be positive")
	}
	if cfg.SLOMs > 0 && cfg.EstServeMs < 0 {
		return nil, fmt.Errorf("batching: negative EstServeMs")
	}
	return &Former{cfg: cfg}, nil
}

// Add appends a member and reports whether the batch is now full (the
// size rule — the caller closes it immediately with Take).
func (f *Former) Add(id int, arrival time.Duration) (full bool) {
	f.members = append(f.members, Member{ID: id, Arrival: arrival})
	return len(f.members) >= f.cfg.MaxBatch
}

// OldestWaitMs returns how long the oldest member has waited at now, or 0
// when empty.
func (f *Former) OldestWaitMs(now time.Duration) float64 {
	if len(f.members) == 0 {
		return 0
	}
	return float64(now-f.members[0].Arrival) / 1e6
}

// ShouldClose evaluates the tick-driven rules at virtual time now.
// drained reports that the arrival trace is exhausted (no future query can
// join). Size is handled at Add; precedence here is SLO > delay > drain.
func (f *Former) ShouldClose(now time.Duration, drained bool) CloseReason {
	if len(f.members) == 0 {
		return ReasonNone
	}
	wait := f.OldestWaitMs(now)
	if f.cfg.SLOMs > 0 && f.cfg.EstServeMs > 0 {
		// Close while the oldest member can still attain its SLO: if by the
		// *next* tick the wait plus the estimated serve time would exceed
		// the SLO, dispatch now.
		if wait+TickMs+f.cfg.EstServeMs >= f.cfg.SLOMs {
			return ReasonSLO
		}
	}
	if wait >= float64(f.cfg.MaxDelay)/1e6 {
		return ReasonDelay
	}
	if drained {
		return ReasonDrain
	}
	return ReasonNone
}

// Take removes and returns the forming batch (oldest first). The caller
// decides the reason via Add/ShouldClose before calling.
func (f *Former) Take() []Member {
	m := f.members
	f.members = nil
	return m
}
