package simnet

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"gillis/internal/par"
)

// orderPin is the (now, stampSeq, name) log of orderScenario as the
// goroutine-per-process kernel this one replaced produced it (recorded at
// commit 5cf26cd, identical at GOMAXPROCS 1, 2 and 3). Every golden report
// and BENCH_*.json in the repository is a function of this order.
const orderPin = `0s 1 a start
0s 2 b start
0s 3 at0-mid-spawns
0s 4 r0 acquired
0s 5 a after sleep0
1ms 6 r0 released
1ms 7 r1 acquired
2ms 8 r1 released
2ms 9 r2 acquired
3ms 10 r2 released
5ms 11 at5-before-spawns
5ms 12 at5-after-spawns
5ms 13 h prA=0 err=simnet: wait deadline exceeded
5ms 14 d try=true
5ms 15 e try=false
5ms 16 e tryfail=false
5ms 17 f prRace=1 err=<nil>
5ms 18 a woke
5ms 19 a resolved prA
5ms 20 g prRace=1 err=<nil>
5ms 21 b got prA=1 err=<nil>
5ms 22 c prA=1 err=<nil>
5ms 23 long prLong=4 err=<nil>
5ms 24 b.child start
5ms 25 b after sleep0
5ms 26 b again prA=1 err=<nil>
5ms 27 b.child after sleep0
7ms 28 c prLate=0 err=simnet: wait deadline exceeded
7ms 29 c prLate zero=0 err=simnet: wait deadline exceeded
20ms 30 late resolved prLate
20ms 31 c prLate wait=9 err=<nil>
100ms 32 end`

// orderScenario runs one scripted simulation that touches every primitive
// and returns its log.
func orderScenario(t *testing.T) string {
	env := NewEnv()
	var log []string
	rec := func(format string, args ...any) {
		now, seq := env.Stamp()
		log = append(log, fmt.Sprintf("%v %d %s", now, seq, fmt.Sprintf(format, args...)))
	}
	at := func(d int, name string) {
		if err := env.At(ms(d), func() { rec(name) }); err != nil {
			t.Fatal(err)
		}
	}
	var (
		prA    = NewPromise[int](env)
		prLate = NewPromise[int](env)
		prRace = NewPromise[int](env)
		prLong = NewPromise[int](env)
		res    = &Resource{}
	)
	at(5, "at5-before-spawns")
	env.Go("a", func(p *Proc) {
		rec("a start")
		p.Sleep(0)
		rec("a after sleep0")
		p.Sleep(ms(5))
		rec("a woke")
		prA.Resolve(1)
		rec("a resolved prA")
		prLong.Resolve(4)
	})
	env.Go("h", func(p *Proc) {
		// h's timer is pushed before a's 5 ms sleep, so at 5 ms it fires
		// first and h times out at the very instant prA resolves.
		v, err := prA.WaitTimeout(p, ms(5))
		rec("h prA=%d err=%v", v, err)
	})
	env.Go("b", func(p *Proc) {
		rec("b start")
		v, err := prA.Wait(p)
		rec("b got prA=%d err=%v", v, err)
		env.Go("b.child", func(c *Proc) {
			rec("b.child start")
			c.Sleep(0)
			rec("b.child after sleep0")
		})
		p.Sleep(0)
		rec("b after sleep0")
		v, err = prA.Wait(p)
		rec("b again prA=%d err=%v", v, err)
	})
	env.Go("c", func(p *Proc) {
		v, err := prA.WaitTimeout(p, ms(10))
		rec("c prA=%d err=%v", v, err)
		v, err = prLate.WaitTimeout(p, ms(2))
		rec("c prLate=%d err=%v", v, err)
		v, err = prLate.WaitTimeout(p, 0)
		rec("c prLate zero=%d err=%v", v, err)
		v, err = prLate.Wait(p) // its stale waiter from the timed-out wait is still registered
		rec("c prLate wait=%d err=%v", v, err)
	})
	at(0, "at0-mid-spawns")
	env.Go("d", func(p *Proc) {
		p.Sleep(ms(5))
		rec("d try=%v", prRace.TryResolve(1))
	})
	env.Go("e", func(p *Proc) {
		p.Sleep(ms(5))
		rec("e try=%v", prRace.TryResolve(2))
		rec("e tryfail=%v", prRace.TryFail(errTest))
	})
	env.Go("f", func(p *Proc) {
		// The timer and d's resolution land on the same instant, d first.
		v, err := prRace.WaitTimeout(p, ms(5))
		rec("f prRace=%d err=%v", v, err)
	})
	env.Go("g", func(p *Proc) {
		p.Sleep(ms(1))
		v, err := prRace.WaitTimeout(p, ms(4))
		rec("g prRace=%d err=%v", v, err)
	})
	env.Go("late", func(p *Proc) {
		p.Sleep(ms(20))
		prLate.Resolve(9)
		rec("late resolved prLate")
	})
	env.Go("long", func(p *Proc) {
		// Wins at 5 ms; the abandoned 100 ms timer still advances the clock.
		v, err := prLong.WaitTimeout(p, ms(100))
		rec("long prLong=%d err=%v", v, err)
	})
	for i := 0; i < 3; i++ {
		i := i
		env.Go("r", func(p *Proc) {
			res.Acquire(p)
			rec("r%d acquired", i)
			p.Sleep(ms(1))
			res.Release()
			rec("r%d released", i)
		})
	}
	at(5, "at5-after-spawns")
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	rec("end")
	return strings.Join(log, "\n")
}

func TestOrderPin(t *testing.T) {
	if got := orderScenario(t); got != orderPin {
		t.Fatalf("event order changed:\n--- got\n%s\n--- want\n%s", got, orderPin)
	}
}

// Run leaves behind no goroutine it could have stopped: idle coroutines are
// stopped on every return, and after a deadlock only the processes still
// parked on their promises remain.
func TestRunStopsIdleCoroutines(t *testing.T) {
	base := settledGoroutines()
	env := NewEnv()
	for i := 0; i < 8; i++ {
		env.Go("p", func(p *Proc) { p.Sleep(ms(1)) })
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if n := runtime.NumGoroutine(); n != base {
		t.Fatalf("%d goroutines after a clean Run, %d before it", n, base)
	}

	env = NewEnv()
	never := NewPromise[int](env)
	for i := 0; i < 8; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			p.Sleep(ms(1))
			if i < 2 {
				_, _ = never.Wait(p)
			}
		})
	}
	err := env.Run()
	if err == nil || err.Error() != "simnet: deadlock: 2 process(es) parked on unresolved promises" {
		t.Fatalf("got %v, want the deadlock error", err)
	}
	if n := runtime.NumGoroutine(); n != base+2 {
		t.Fatalf("%d goroutines after a deadlock with 2 parked processes, %d before it", n, base)
	}
}

// settledGoroutines returns runtime.NumGoroutine() once it has read the same
// for ten milliseconds running, or after a second: goroutines an earlier
// test started may still be on their way out, and counting one of them
// would make the baseline one too high.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for i, same := 0, 0; i < 1000 && same < 10; i++ {
		time.Sleep(time.Millisecond)
		if m := runtime.NumGoroutine(); m == n {
			same++
		} else {
			n, same = m, 0
		}
	}
	return n
}

// A Sleep that has to queue its wake (another process's wake is due first)
// allocates nothing once the heap has grown.
func TestSleepDoesNotAllocate(t *testing.T) {
	const rounds = 200
	var allocs float64
	done := false
	env := NewEnv()
	env.Go("other", func(p *Proc) {
		for !done {
			p.Sleep(ms(1))
		}
	})
	env.Go("p", func(p *Proc) {
		p.Sleep(ms(1)) // grow the event heap before counting
		allocs = testing.AllocsPerRun(rounds, func() { p.Sleep(ms(1)) })
		done = true
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Fatalf("Sleep allocates %v times", allocs)
	}
}

// A lone sleeper's wake is always the next event, so its Sleep continues in
// place: nothing is queued and nothing allocated, and every sleep still
// counts towards Run's scheduler pass.
func TestLoneSleeperAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const rounds = 200
	var allocs float64
	queued := false
	env := NewEnv()
	env.Go("p", func(p *Proc) {
		allocs = testing.AllocsPerRun(rounds, func() {
			p.Sleep(ms(1))
			queued = queued || len(env.events) > 0
		})
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if allocs != 0 || queued {
		t.Fatalf("a lone Sleep allocates %v times (queued a wake: %v)", allocs, queued)
	}
	// AllocsPerRun makes one warm-up call; Run popped the start event.
	if env.Now() != ms(rounds+1) || env.steps != rounds+2 {
		t.Fatalf("clock %v after %d sleeps of 1ms, %d cadence steps", env.Now(), rounds+1, env.steps)
	}
}

func TestMillionEvents(t *testing.T) {
	const procs, sleeps = 100, 10000
	env := NewEnv()
	woken := 0
	for i := 0; i < procs; i++ {
		env.Go("p", func(p *Proc) {
			for j := 0; j < sleeps; j++ {
				p.Sleep(ms(1))
				woken++
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != procs*sleeps || env.Now() != ms(sleeps) {
		t.Fatalf("%d wakes ending at %v, want %d at %v", woken, env.Now(), procs*sleeps, ms(sleeps))
	}
}

// A panic in a process unwinds Run on the goroutine that called it, where
// the caller can recover it.
func TestProcessPanicSurfacesOnRun(t *testing.T) {
	env := NewEnv()
	env.Go("bystander", func(p *Proc) { p.Sleep(ms(1)) })
	env.Go("bad", func(p *Proc) {
		p.Sleep(ms(2))
		panic("boom")
	})
	recovered := func() (r any) {
		defer func() { r = recover() }()
		return env.Run()
	}()
	if recovered != "boom" {
		t.Fatalf("Run gave %v, want the process's panic", recovered)
	}
}

// Process bodies may block on real synchronisation: here each fans a
// par.For out over goroutines and joins it between parks. Run under -race
// (make race), which also checks the hand-offs between Run and the
// processes order every access to the shared log.
func TestProcessBlocksOnRealSync(t *testing.T) {
	defer par.SetParallelism(4)()
	const procs, n = 4, 1 << 12
	env := NewEnv()
	var order []int
	for i := 0; i < procs; i++ {
		i := i
		env.Go("p", func(p *Proc) {
			out := make([]int, n)
			for round := 0; round < 3; round++ {
				par.For(n, 1<<20, func(lo, hi int) {
					for k := lo; k < hi; k++ {
						out[k] += k
					}
				})
				order = append(order, i)
				p.Sleep(ms(1))
			}
			if out[n-1] != 3*(n-1) {
				t.Errorf("process %d: out[%d] = %d", i, n-1, out[n-1])
			}
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(order), "[0 1 2 3 0 1 2 3 0 1 2 3]"; got != want {
		t.Fatalf("order %s, want %s", got, want)
	}
}
