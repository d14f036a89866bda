package platform

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"gillis/internal/simnet"
	"gillis/internal/stats"
	"gillis/internal/trace"
	"gillis/internal/trace/tracetest"
)

// invokeFunc is a synchronous invocation from a plain process: InvokeFromSpan
// or its spawn-and-wait reference.
type invokeFunc func(p *Platform, proc *simnet.Proc, name string, payload Payload, parent *trace.Span) (InvokeResult, error)

// gridCfg puts every simulated duration on a 1 ms grid (1000 payload bytes
// take 1 ms, 1e6 FLOPs take 1 ms, the overhead is 3 ms whatever it draws), so
// processes keep meeting at the same instants and only the (at, seq) order
// decides who goes first. noisy keeps the overhead draws' own durations, so
// the order of the draws shows in every result.
func gridCfg(noisy bool) Config {
	cfg := Config{
		Name:           "grid",
		WeightBudgetMB: 1400,
		GFLOPS:         1,
		NetMBps:        1,
		InvokeOverhead: stats.EMG{Mu: 3 + 1e-7, Sigma: 1e-12, Lambda: 1e12},
		BillingGranMs:  1,
		ColdStartMs:    5,
		WarmIdleMs:     20,
		Faults:         FaultProfile{FailureProb: 0.15, StragglerProb: 0.2, StragglerFactor: 2, EvictionProb: 0.1},
	}
	if noisy {
		cfg.InvokeOverhead = stats.EMG{Mu: 3, Sigma: 0.5, Lambda: 1}
	}
	return cfg
}

// orderScenario runs four clients and two same-time sleepers from the same
// instant, every one of them acting on the 1 ms grid. Clients invoke "leaf"
// (compute, a reply of 0–2 KB), "fan" (which invokes "leaf" synchronously
// through invoke on its own process and asynchronously through InvokeAsync)
// or an unregistered function; two of them under a traced parent. The
// sleepers now and then prewarm either function, read "leaf"'s warm pool and
// stamp the trace. It returns
// everything the simulation decides: the canonical trace, each result with
// its instant, the bill, the metrics and the final clock.
func orderScenario(t *testing.T, cfg Config, seed int64, invoke invokeFunc) string {
	t.Helper()
	env := simnet.NewEnv()
	p := New(env, cfg, seed)
	tr := trace.New("query", env.Stamp)
	root := tr.Root()
	var log strings.Builder
	leaf := func(ctx *Ctx, in Payload) (Payload, error) {
		k := in.Data.(int)
		ctx.ComputeOp(int64(1+k%3)*1e6, 0)
		return Payload{Bytes: int64(k%3) * 1000, Data: k}, nil
	}
	fan := func(ctx *Ctx, in Payload) (Payload, error) {
		k := in.Data.(int)
		pr := ctx.InvokeAsync("leaf", Payload{Bytes: int64(k%2) * 1000, Data: k + 1})
		res, err := invoke(p, ctx.Proc(), "leaf", Payload{Bytes: int64(k%3) * 1000, Data: k}, ctx.Span())
		fmt.Fprintf(&log, "fan %d sync t=%d %+v %v\n", k, ctx.Proc().Now(), res, err)
		ctx.ComputeOp(1e6, 0)
		res, err = settled(pr.Wait(ctx.Proc()))
		fmt.Fprintf(&log, "fan %d async t=%d %+v %v\n", k, ctx.Proc().Now(), res, err)
		return Payload{Bytes: 1000, Data: k}, err
	}
	if err := p.Register("leaf", leaf); err != nil {
		t.Fatal(err)
	}
	if err := p.Register("fan", fan); err != nil {
		t.Fatal(err)
	}
	const clients, calls = 4, 10
	live := clients
	for c := 0; c < clients; c++ {
		rng := rand.New(rand.NewSource(seed*100 + int64(c)))
		var parent *trace.Span
		if c < 2 {
			parent = root
		}
		env.Go("client", func(proc *simnet.Proc) {
			defer func() { live-- }()
			for i := 0; i < calls; i++ {
				proc.Sleep(time.Duration(rng.Intn(3)) * time.Millisecond)
				name := [...]string{"leaf", "leaf", "fan", "fan", "missing"}[rng.Intn(5)]
				k := 100*c + i
				res, err := invoke(p, proc, name, Payload{Bytes: int64(rng.Intn(3)) * 1000, Data: k}, parent)
				fmt.Fprintf(&log, "client %d call %d %s t=%d %+v %v\n", c, i, name, proc.Now(), res, err)
			}
		})
	}
	for s := 0; s < 2; s++ {
		rng := rand.New(rand.NewSource(seed*100 + 50 + int64(s)))
		env.Go("sleeper", func(proc *simnet.Proc) {
			for live > 0 {
				proc.Sleep(time.Duration(rng.Intn(2)) * time.Millisecond)
				if rng.Intn(8) == 0 {
					if err := p.Prewarm([...]string{"leaf", "fan"}[rng.Intn(2)], 1); err != nil {
						t.Error(err)
					}
				}
				n := p.Function("leaf").WarmCount()
				root.Event("sleeper", "warm", fmt.Sprint(n))
				fmt.Fprintf(&log, "sleeper %d t=%d warm=%d\n", s, proc.Now(), n)
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	root.EndSpan()
	tracetest.CheckWellFormed(t, tr)
	fmt.Fprintf(&log, "billed %d prewarm %d now %d\n%s\n%s", p.BilledMsTotal(), p.PrewarmBilledMs(), env.Now(), p.Metrics().Summary(), tracetest.Canonical(tr, nil))
	return log.String()
}

// TestInlineInvokeKeepsEventOrder: a synchronous invocation running on its
// caller's process decides everything as one spawned for it that the caller
// waits for: the same results at the same instants, the same trace, bill and
// metrics, across seeds where clients, function callers and same-time
// sleepers keep meeting at one instant, with faults drawn on every call.
func TestInlineInvokeKeepsEventOrder(t *testing.T) {
	for _, noisy := range []bool{false, true} {
		for seed := int64(1); seed <= 12; seed++ {
			cfg := gridCfg(noisy)
			want := orderScenario(t, cfg, seed, (*Platform).invokeFromSpanSpawned)
			got := orderScenario(t, cfg, seed, (*Platform).InvokeFromSpan)
			if got != want {
				t.Fatalf("noisy=%v seed %d: the inline invocation decided differently:\n%s", noisy, seed, firstDiff(want, got))
			}
		}
	}
}

// firstDiff shows the first line where two logs part.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d\nspawned: %s\ninline:  %s", i+1, w[i], g[i])
		}
	}
	return fmt.Sprintf("spawned has %d lines, inline %d", len(w), len(g))
}
