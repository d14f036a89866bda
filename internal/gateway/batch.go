package gateway

// Cross-query batch forming (DESIGN.md §13). Every arrival is an admission
// unit — the queries that take one admission slot and ride one fork-join
// pass. With Config.Batch.MaxBatch <= 1 the unit is the arrival alone, closed
// the instant it arrives, and nothing in this file runs. With MaxBatch >= 2
// arrivals accumulate in a batch former whose unit closes when it is full (at
// admission), or on the control tick when the oldest member's delay or SLO
// budget runs out, or when the arrival trace drains. One member — the
// arrival that filled the batch, or the oldest member on a tick close —
// leads: its process takes the unit through admit and serve (gateway.go),
// which settle a typed per-query Outcome for every member.

import (
	"gillis/internal/batching"
	"gillis/internal/simnet"
)

// batchAssign is what a waiting batch member learns when its batch closes:
// the membership and closing rule if it leads the unit, the zero value if
// another member does.
type batchAssign struct {
	batch  []batching.Member
	reason batching.CloseReason
}

// setupBatching arms the batch former when the configuration asks for units
// larger than one. Called from Run after cfg.withDefaults().
func (g *gateway) setupBatching(cfg Config) error {
	if cfg.Batch.MaxBatch <= 1 {
		return nil
	}
	bcfg := cfg.Batch
	// The former inherits the gateway's SLO unless the batch config pins
	// its own.
	if bcfg.SLOMs == 0 {
		bcfg.SLOMs = cfg.SLOMs
	}
	f, err := batching.New(bcfg)
	if err != nil {
		return err
	}
	g.former = f
	g.waiters = make(map[int]*simnet.Promise[batchAssign])
	g.batchClosed = make(map[string]int)
	g.mBatches = g.reg.Counter("gateway.batches")
	g.hBatchSize = g.reg.Histogram("gateway.batch_size")
	return nil
}

// formBatch puts an arrival into the forming batch and returns the closed
// batch if this process leads it, nil if another member's process does: the
// arrival either closes the batch (it fills it) or waits for a tick close to
// assign a role.
func (g *gateway) formBatch(proc *simnet.Proc, m batching.Member) []batching.Member {
	var a batchAssign
	if g.former.Add(m.ID, m.Arrival) {
		// Size rule: the batch is full; this arrival closes and leads it.
		a = batchAssign{batch: g.former.Take(), reason: batching.ReasonSize}
	} else {
		pr := simnet.NewPromise[batchAssign](proc.Env())
		g.waiters[m.ID] = pr
		var err error
		if a, err = pr.Wait(proc); err != nil {
			g.settle(Outcome{ID: m.ID, ArrivalMs: durMs(m.Arrival), BatchSize: 1, Err: err.Error()})
			return nil
		}
	}
	if a.batch == nil {
		return nil
	}
	n := len(a.batch)
	g.batches++
	g.batchSizeSum += n
	g.batchClosed[a.reason.String()]++
	g.mBatches.Inc()
	g.hBatchSize.Observe(float64(n))
	return a.batch
}

// batchTick evaluates the tick-driven closing rules; on a close it appoints
// the oldest member leader by resolving its promise. Called from the
// autoscale process each control tick, before the adaptive controller.
func (g *gateway) batchTick(proc *simnet.Proc) {
	if g.former == nil {
		return
	}
	reason := g.former.ShouldClose(proc.Now(), g.started >= g.total)
	if reason == batching.ReasonNone {
		return
	}
	members := g.former.Take()
	lead := g.waiters[members[0].ID]
	delete(g.waiters, members[0].ID)
	lead.Resolve(batchAssign{batch: members, reason: reason})
}

// releaseWaiters resolves every non-leader member's promise so their
// processes can exit; the leader has no pending promise by construction.
func (g *gateway) releaseWaiters(members []batching.Member, leaderID int) {
	for _, m := range members {
		if m.ID == leaderID {
			continue
		}
		if pr, ok := g.waiters[m.ID]; ok {
			delete(g.waiters, m.ID)
			pr.Resolve(batchAssign{})
		}
	}
}
