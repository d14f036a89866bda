package simnet

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the randomised order pins (only ever from a kernel known to be right)")

// The randomised order pins extend TestOrderPin from one script to seeded
// random programs. testdata/order/seed-NN.log is the Stamp log of seed NN's
// program as the kernel with a push and a yield per Sleep, a Promise per
// contended Acquire and a fresh Proc per Go produced it. Every simulated
// number in the repository is a function of that order, so the kernel must
// reproduce each log byte for byte; never re-record one to make a kernel
// change pass.
const orderSeeds = 20

const (
	pinPromises  = 12
	pinResources = 2
)

type pinOp int

const (
	pinSleep pinOp = iota
	pinWait
	pinWaitTimeout
	pinTryResolve
	pinTryFail
	pinHold // Acquire, Sleep, Release
	pinGo
	pinAt // At callback that TryResolves, and spawns when it carries a body
)

// pinMix weights the draw towards parking: most promises should still be
// open when they are waited on.
var pinMix = []pinOp{
	pinSleep, pinSleep, pinSleep, pinWait, pinWait, pinWaitTimeout, pinWaitTimeout, pinWaitTimeout,
	pinTryResolve, pinTryFail, pinHold, pinHold, pinGo, pinGo, pinAt,
}

type pinStep struct {
	op   pinOp
	pr   int
	d    time.Duration
	v    int
	body []pinStep // pinGo, pinAt: the process to spawn
}

// pinScript draws a process body. A third of the bodies end in a long
// WaitTimeout, so a body often returns while its timer is still queued and
// whatever runs on that Proc next meets the stale wake.
func pinScript(r *rand.Rand, depth int) []pinStep {
	s := make([]pinStep, 1+r.Intn(8))
	for i := range s {
		st := pinStep{
			op: pinMix[r.Intn(len(pinMix))],
			pr: r.Intn(pinPromises),
			d:  time.Duration(r.Intn(9)-2) * 500 * time.Microsecond, // -1 ms .. 3 ms: many ties, zeros and negatives
			v:  r.Intn(100),
		}
		if (st.op == pinGo || st.op == pinAt) && depth < 2 && r.Intn(3) > 0 {
			st.body = pinScript(r, depth+1)
		}
		s[i] = st
	}
	if r.Intn(3) == 0 {
		s = append(s, pinStep{op: pinWaitTimeout, pr: r.Intn(pinPromises), d: 20 * time.Millisecond})
	}
	return s
}

// randomOrderLog runs seed's program and returns its log: one line per
// action, each stamped with the virtual time and the Stamp sequence.
func randomOrderLog(seed int64) string {
	r := rand.New(rand.NewSource(seed))
	env := NewEnv()
	var log strings.Builder
	rec := func(format string, args ...any) {
		now, seq := env.Stamp()
		fmt.Fprintf(&log, "%v %d %s\n", now, seq, fmt.Sprintf(format, args...))
	}
	var prs [pinPromises]*Promise[int]
	for i := range prs {
		prs[i] = NewPromise[int](env)
	}
	var res [pinResources]Resource
	procs := 0
	var spawn func(body []pinStep)
	at := func(who string, st pinStep) {
		d := st.d
		if d < 0 {
			d = -d
		}
		if err := env.At(env.Now()+d, func() {
			rec("%s at: try pr%d=%d %v", who, st.pr, st.v, prs[st.pr].TryResolve(st.v))
			if st.body != nil {
				spawn(st.body)
			}
		}); err != nil {
			rec("%s at: %v", who, err)
		}
	}
	spawn = func(body []pinStep) {
		procs++
		id := fmt.Sprintf("p%d", procs)
		env.Go("pin", func(p *Proc) {
			rec("%s start", id)
			for i, st := range body {
				who := fmt.Sprintf("%s.%d", id, i)
				pr := prs[st.pr]
				switch st.op {
				case pinSleep:
					p.Sleep(st.d)
					rec("%s slept %v", who, st.d)
				case pinWait:
					v, err := pr.Wait(p)
					rec("%s wait pr%d=%d %v", who, st.pr, v, err)
				case pinWaitTimeout:
					v, err := pr.WaitTimeout(p, st.d)
					rec("%s wait pr%d within %v=%d %v", who, st.pr, st.d, v, err)
				case pinTryResolve:
					rec("%s try pr%d=%d %v", who, st.pr, st.v, pr.TryResolve(st.v))
				case pinTryFail:
					rec("%s fail pr%d %v", who, st.pr, pr.TryFail(errTest))
				case pinHold:
					rs := &res[st.pr%pinResources]
					rs.Acquire(p)
					rec("%s acquired r%d", who, st.pr%pinResources)
					p.Sleep(st.d)
					rs.Release()
					rec("%s released r%d", who, st.pr%pinResources)
				case pinGo:
					spawn(st.body)
					rec("%s spawned", who)
				case pinAt:
					at(who, st)
				}
			}
			rec("%s end", id)
		})
	}
	for n := 3 + r.Intn(6); n > 0; n-- {
		spawn(pinScript(r, 0))
	}
	for i := range prs {
		if r.Intn(2) == 0 {
			at("main", pinStep{pr: i, d: time.Duration(r.Intn(40)) * 250 * time.Microsecond, v: r.Intn(100)})
		}
	}
	if seed%4 == 3 {
		// A process that holds r0 for ever: the run ends in a deadlock, with
		// everyone queued on r0 parked too.
		never := NewPromise[int](env)
		env.Go("pin", func(p *Proc) {
			p.Sleep(5 * time.Millisecond)
			res[0].Acquire(p)
			rec("holder acquired r0")
			_, _ = never.Wait(p)
		})
	}
	// Settle every promise late, so only the holder above can deadlock.
	if err := env.At(time.Second, func() {
		for i, pr := range prs {
			rec("main settles pr%d %v", i, pr.TryResolve(-1))
		}
	}); err != nil {
		panic(err)
	}
	err := env.Run()
	rec("run: %v", err)
	return log.String()
}

func TestRandomOrderPins(t *testing.T) {
	for seed := int64(1); seed <= orderSeeds; seed++ {
		path := filepath.Join("testdata", "order", fmt.Sprintf("seed-%02d.log", seed))
		got := randomOrderLog(seed)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if got == string(want) {
			continue
		}
		g, w := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(g) && i < len(w); i++ {
			if g[i] != w[i] {
				t.Errorf("seed %d: event order changed at line %d:\n got  %s\n want %s", seed, i+1, g[i], w[i])
				break
			}
		}
		if len(g) != len(w) {
			t.Errorf("seed %d: %d log lines, want %d", seed, len(g), len(w))
		}
	}
}
