package simnet

import (
	"runtime"
	"testing"
	"time"
)

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSleepAdvancesClock(t *testing.T) {
	env := NewEnv()
	var end time.Duration
	env.Go("p", func(p *Proc) {
		p.Sleep(ms(10))
		p.Sleep(ms(5))
		end = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if end != ms(15) {
		t.Fatalf("clock at %v, want 15ms", end)
	}
}

func TestZeroAndNegativeSleep(t *testing.T) {
	env := NewEnv()
	var ok bool
	env.Go("p", func(p *Proc) {
		p.Sleep(0)
		p.Sleep(-ms(5))
		ok = p.Now() == 0
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("zero/negative sleeps must not advance time")
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	run := func() []string {
		env := NewEnv()
		var order []string
		for _, name := range []string{"a", "b", "c"} {
			name := name
			env.Go(name, func(p *Proc) {
				p.Sleep(ms(10)) // all wake at the same instant
				order = append(order, name)
			})
		}
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		return order
	}
	first := run()
	for i := 0; i < 10; i++ {
		got := run()
		for j := range first {
			if got[j] != first[j] {
				t.Fatalf("nondeterministic order: %v vs %v", got, first)
			}
		}
	}
	// Ties break by spawn order.
	if first[0] != "a" || first[1] != "b" || first[2] != "c" {
		t.Fatalf("tie-break order wrong: %v", first)
	}
}

func TestPromiseForkJoin(t *testing.T) {
	env := NewEnv()
	var joined time.Duration
	env.Go("master", func(p *Proc) {
		var promises []*Promise[int]
		for i, d := range []int{30, 10, 20} {
			i, d := i, d
			pr := NewPromise[int](env)
			promises = append(promises, pr)
			env.Go("worker", func(w *Proc) {
				w.Sleep(ms(d))
				pr.Resolve(i)
			})
		}
		sum := 0
		for _, pr := range promises {
			v, err := pr.Wait(p)
			if err != nil {
				t.Error(err)
			}
			sum += v
		}
		if sum != 3 {
			t.Errorf("sum %d", sum)
		}
		joined = p.Now()
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != ms(30) {
		t.Fatalf("join at %v, want max worker time 30ms", joined)
	}
}

func TestPromiseWaitAfterResolve(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[string](env)
	var got string
	env.Go("a", func(p *Proc) { pr.Resolve("x") })
	env.Go("b", func(p *Proc) {
		p.Sleep(ms(1))
		got, _ = pr.Wait(p) // already resolved: returns immediately
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if got != "x" {
		t.Fatalf("got %q", got)
	}
}

func TestPromiseFail(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var err error
	env.Go("a", func(p *Proc) { pr.Fail(errTest) })
	env.Go("b", func(p *Proc) { _, err = pr.Wait(p) })
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != errTest {
		t.Fatalf("got %v", err)
	}
}

func TestPromiseFailWakesAllWaiters(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	errs := make([]error, 3)
	for i := 0; i < 3; i++ {
		i := i
		env.Go("waiter", func(p *Proc) { _, errs[i] = pr.Wait(p) })
	}
	env.Go("failer", func(p *Proc) {
		p.Sleep(ms(5))
		pr.Fail(errTest)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	for i, err := range errs {
		if err != errTest {
			t.Fatalf("waiter %d got %v, want errTest", i, err)
		}
	}
	// A late Wait on a failed promise returns the error immediately.
	env2 := NewEnv()
	pr2 := NewPromise[int](env2)
	pr2.Fail(errTest)
	var late error
	env2.Go("late", func(p *Proc) { _, late = pr2.Wait(p) })
	if err := env2.Run(); err != nil {
		t.Fatal(err)
	}
	if late != errTest {
		t.Fatalf("late waiter got %v", late)
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var (
		err error
		at  time.Duration
	)
	env.Go("waiter", func(p *Proc) {
		_, err = pr.WaitTimeout(p, ms(10))
		at = p.Now()
	})
	env.Go("slow", func(p *Proc) {
		p.Sleep(ms(50))
		pr.Resolve(1)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != ErrTimeout {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if at != ms(10) {
		t.Fatalf("timed out at %v, want 10ms", at)
	}
}

func TestWaitTimeoutResolvesFirst(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var (
		v   int
		err error
		at  time.Duration
	)
	env.Go("waiter", func(p *Proc) {
		v, err = pr.WaitTimeout(p, ms(100))
		at = p.Now()
	})
	env.Go("fast", func(p *Proc) {
		p.Sleep(ms(5))
		pr.Resolve(7)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != nil || v != 7 {
		t.Fatalf("got (%d, %v)", v, err)
	}
	if at != ms(5) {
		t.Fatalf("woke at %v, want 5ms", at)
	}
}

func TestWaitTimeoutFailureFirst(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var err error
	env.Go("waiter", func(p *Proc) { _, err = pr.WaitTimeout(p, ms(100)) })
	env.Go("failer", func(p *Proc) {
		p.Sleep(ms(2))
		pr.Fail(errTest)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != errTest {
		t.Fatalf("got %v, want errTest (promise failure, not timeout)", err)
	}
}

func TestWaitTimeoutAlreadyResolved(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[string](env)
	pr.Resolve("done")
	var (
		v   string
		err error
	)
	env.Go("waiter", func(p *Proc) { v, err = pr.WaitTimeout(p, ms(1)) })
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if v != "done" || err != nil {
		t.Fatalf("got (%q, %v)", v, err)
	}
}

func TestWaitTimeoutNonPositive(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var err error
	env.Go("waiter", func(p *Proc) { _, err = pr.WaitTimeout(p, 0) })
	env.Go("resolver", func(p *Proc) {
		p.Sleep(ms(1))
		pr.Resolve(1) // after the zero-deadline waiter already gave up
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if err != ErrTimeout {
		t.Fatalf("got %v, want immediate ErrTimeout", err)
	}
}

// After a timed-out wait, the promise still completes normally for other
// waiters, and a plain Wait sees the value.
func TestWaitTimeoutDoesNotConsumePromise(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var first error
	var second int
	env.Go("impatient", func(p *Proc) {
		_, first = pr.WaitTimeout(p, ms(1))
		second, _ = pr.Wait(p) // now wait for real
	})
	env.Go("slow", func(p *Proc) {
		p.Sleep(ms(20))
		pr.Resolve(9)
	})
	if rerr := env.Run(); rerr != nil {
		t.Fatal(rerr)
	}
	if first != ErrTimeout || second != 9 {
		t.Fatalf("got (%v, %d)", first, second)
	}
}

func TestTryResolveFirstWins(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	var wins [2]bool
	for i, d := range []int{5, 10} {
		i, d := i, d
		env.Go("racer", func(p *Proc) {
			p.Sleep(ms(d))
			wins[i] = pr.TryResolve(i)
		})
	}
	var got int
	env.Go("waiter", func(p *Proc) { got, _ = pr.Wait(p) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if !wins[0] || wins[1] {
		t.Fatalf("wins %v, want first-only", wins)
	}
	if got != 0 {
		t.Fatalf("value %d, want the first racer's", got)
	}
	if pr.TryFail(errTest) {
		t.Fatal("TryFail after completion must lose")
	}
}

func TestPollNonBlocking(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	if _, _, ok := pr.Poll(); ok {
		t.Fatal("unresolved promise must poll not-ok")
	}
	pr.Resolve(3)
	v, err, ok := pr.Poll()
	if !ok || v != 3 || err != nil {
		t.Fatalf("got (%d, %v, %v)", v, err, ok)
	}
}

var errTest = errString("boom")

type errString string

func (e errString) Error() string { return string(e) }

func TestDoubleResolvePanics(t *testing.T) {
	env := NewEnv()
	env.Go("a", func(p *Proc) {
		pr := NewPromise[int](env)
		pr.Resolve(1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic on double resolve")
			}
		}()
		pr.Resolve(2)
	})
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockDetection(t *testing.T) {
	env := NewEnv()
	pr := NewPromise[int](env)
	env.Go("stuck", func(p *Proc) { _, _ = pr.Wait(p) })
	if err := env.Run(); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestRunContinuesWhereItStopped: a Run after a drain, with more work queued
// by Go, starts from the clock, the event sequence and the stamp sequence the
// first one left, and again stops the coroutines of the finished processes.
func TestRunContinuesWhereItStopped(t *testing.T) {
	base := runtime.NumGoroutine()
	env := NewEnv()
	var ends []time.Duration
	var stamps []int64
	for _, d := range []time.Duration{ms(3), ms(2)} {
		env.Go("p", func(p *Proc) {
			p.Sleep(d)
			_, seq := env.Stamp()
			ends, stamps = append(ends, p.Now()), append(stamps, seq)
		})
		if err := env.Run(); err != nil {
			t.Fatal(err)
		}
		if n := runtime.NumGoroutine(); n != base {
			t.Fatalf("%d goroutines after a drain, %d before the first Run", n, base)
		}
	}
	// Each round's Go and Sleep take one event sequence number apiece.
	if ends[0] != ms(3) || ends[1] != ms(5) || env.seq != 4 || stamps[0] != 1 || stamps[1] != 2 {
		t.Fatalf("rounds ended at %v with stamps %v and event sequence %d; want [3ms 5ms], [1 2], 4", ends, stamps, env.seq)
	}
}

func TestAtSchedulesCallback(t *testing.T) {
	env := NewEnv()
	var at time.Duration
	if err := env.At(ms(7), func() { at = env.now }); err != nil {
		t.Fatal(err)
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if at != ms(7) {
		t.Fatalf("callback at %v", at)
	}
	if err := env.At(ms(1), func() {}); err == nil {
		t.Fatal("expected past-time error")
	}
}

func TestResourceFIFOSerialization(t *testing.T) {
	env := NewEnv()
	res := &Resource{}
	var order []int
	var times []time.Duration
	for i := 0; i < 3; i++ {
		i := i
		env.Go("user", func(p *Proc) {
			p.Sleep(time.Duration(i) * time.Microsecond) // stagger arrivals
			res.Acquire(p)
			p.Sleep(ms(10))
			order = append(order, i)
			times = append(times, p.Now())
			res.Release()
		})
	}
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("FIFO violated: %v", order)
	}
	if times[2] < ms(30) {
		t.Fatalf("resource not serialized: finish times %v", times)
	}
}

func TestNestedSpawn(t *testing.T) {
	env := NewEnv()
	depth := 0
	var spawn func(p *Proc, d int)
	spawn = func(p *Proc, d int) {
		if d > depth {
			depth = d
		}
		if d >= 5 {
			return
		}
		pr := NewPromise[struct{}](env)
		env.Go("child", func(c *Proc) {
			c.Sleep(ms(1))
			spawn(c, d+1)
			pr.Resolve(struct{}{})
		})
		_, _ = pr.Wait(p)
	}
	env.Go("root", func(p *Proc) { spawn(p, 0) })
	if err := env.Run(); err != nil {
		t.Fatal(err)
	}
	if depth != 5 {
		t.Fatalf("depth %d", depth)
	}
}

// BenchmarkEvents measures one clock event: 64 processes looping Sleep.
func BenchmarkEvents(b *testing.B) {
	const procs = 64
	b.ReportAllocs()
	env := NewEnv()
	for i := 0; i < procs; i++ {
		i := i
		env.Go("sleeper", func(p *Proc) {
			for n := i; n < b.N; n += procs {
				p.Sleep(ms(1))
			}
		})
	}
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSpawnWait measures a fork-join round of one: spawn a process,
// let it sleep, and join it through a promise.
func BenchmarkSpawnWait(b *testing.B) {
	b.ReportAllocs()
	env := NewEnv()
	env.Go("master", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			pr := NewPromise[int](env)
			env.Go("worker", func(w *Proc) {
				w.Sleep(ms(1))
				pr.Resolve(i)
			})
			if _, err := pr.Wait(p); err != nil {
				b.Error(err)
			}
		}
	})
	b.ResetTimer()
	if err := env.Run(); err != nil {
		b.Fatal(err)
	}
}
