package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"gillis/internal/par"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
)

// TestEngineLifecycle: an engine a request panicked on, or whose simulation
// deadlocked, goes back on the free list as a freshly built one, so the pool
// keeps GOMAXPROCS engines and the next request is served.
func TestEngineLifecycle(t *testing.T) {
	s, err := newServer("", "lambda", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	n := runtime.GOMAXPROCS(0)
	var spoiled []*engine
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Errorf("recovered %v, want the body's panic", r)
			}
		}()
		_ = s.withEngine(func(e *engine) error {
			spoiled = append(spoiled, e)
			panic("boom")
		})
	}()
	err = s.withEngine(func(e *engine) error {
		spoiled = append(spoiled, e)
		env := e.primary.Platform().Env()
		never := simnet.NewPromise[int](env)
		env.Go("stuck", func(p *simnet.Proc) { _, _ = never.Wait(p) })
		return env.Run()
	})
	if err == nil {
		t.Fatal("a deadlocked simulation returned no error")
	}
	if len(s.engines) != n {
		t.Fatalf("%d engines on the free list, want %d", len(s.engines), n)
	}
	pool := make([]*engine, n)
	for i := range pool {
		pool[i] = <-s.engines
		for _, bad := range spoiled {
			if pool[i] == bad {
				t.Errorf("engine %d is one a request spoiled", i)
			}
		}
	}
	for _, e := range pool {
		s.engines <- e
	}

	in := tensor.Full(0.5, 3, 32, 32)
	res, err := s.infer("", in)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := tensor.FromData(res.Output, res.Shape...); got == nil || !tensor.Equal(got, want) {
		t.Fatal("reply after a replaced engine differs from local execution")
	}
	if len(s.engines) != n {
		t.Fatalf("%d engines on the free list after a served request, want %d", len(s.engines), n)
	}
}

// TestConcurrentPredicts: eight callers share one server. Every reply is
// bit-equal to the unfused model's forward, the gateway counts each request
// once, and none cold-starts — every engine was prewarmed and stays warm.
// Under `make race` it is also the check that the free list hands an engine
// to one goroutine at a time.
func TestConcurrentPredicts(t *testing.T) {
	const callers, each = 8, 20
	const seed = 1
	s, err := newServer("", "lambda", seed, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	colds := s.metrics.Counter("platform.cold_starts").Value()
	ref := demoModel()
	ref.Init(seed)
	mux := s.mux()
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < each; i++ {
				x := tensor.Rand(rng, 1, ref.InShape()...)
				want, err := ref.Forward(x)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
				if err != nil {
					t.Error(err)
					return
				}
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				var pr predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || rec.Code != http.StatusOK {
					t.Errorf("caller %d request %d: status %d, decode error %v", c, i, rec.Code, err)
					return
				}
				for j, v := range want.Data() {
					if math.Float32bits(pr.Output[j]) != math.Float32bits(v) {
						t.Errorf("caller %d request %d: output[%d] = %v, the forward gives %v", c, i, j, pr.Output[j], v)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := s.metrics.Counter("gateway.queries").Value(); got != callers*each {
		t.Errorf("gateway.queries = %d after %d requests", got, callers*each)
	}
	if got := s.metrics.Counter("platform.cold_starts").Value(); got != colds {
		t.Errorf("platform.cold_starts went %d -> %d: a resident engine went cold", colds, got)
	}
}

// TestInferAllocationBudget pins what one request allocates on a resident
// engine, the demo model's forward and reply included, so per-request
// construction of the simulation cannot creep back: it is 91 objects on a
// resident engine with one worker, and building a fresh Env, platform,
// deployment and warm pool for every request made it 182. The bytes are
// pinned as tightly: 5080 B, where a tensor of its own for every inner unit
// output made it 120 KB. The byte budget has less slack than the demo model's
// smallest inner unit output is big (fc's 40 B), so any one of them allocated
// again breaks it; a change that allocates less lowers it. One worker, so
// par.For spawns nothing; the minimum of several runs, so a collection that
// empties the scratch pool between two of them does not count.
func TestInferAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget, budgetBytes = 120, 5104
	s, err := newServer("", "lambda", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	smallest := int64(math.MaxInt64)
	for _, gp := range s.plan.Groups {
		for _, u := range s.units[gp.First:gp.Last] {
			smallest = min(smallest, tensor.SizeBytes(u.OutShape))
		}
	}
	defer par.SetParallelism(1)()
	in := tensor.Full(0.5, 3, 32, 32)
	infer := func() {
		if _, err := s.infer("", in); err != nil {
			t.Fatal(err)
		}
	}
	// AllocsPerRun's warm-up call serves on one engine only; warm them all.
	for i := 0; i < cap(s.engines); i++ {
		infer()
	}
	allocs := testing.AllocsPerRun(50, infer)
	t.Logf("%v objects per request", allocs)
	if allocs > budget {
		t.Fatalf("a request allocates %v objects, budget %d", allocs, budget)
	}
	bytes := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		infer()
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B per request; smallest inner unit output %d B", bytes, smallest)
	if bytes > budgetBytes || budgetBytes-bytes >= uint64(smallest) {
		t.Errorf("a request allocates %d B, budget %d B with less slack than %d B", bytes, budgetBytes, smallest)
	}
}
