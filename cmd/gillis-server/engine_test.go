package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
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

	in := filled(0.5, 3, 32, 32)
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
	ref := models.DemoCNN()
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
// construction of the simulation cannot creep back: it is 69 objects on a
// resident engine with one worker (73 while the master invocation's Ctx, its
// request, reply and resilience tally were allocated per request rather
// than recycled, 90 while it also ran on a process and a promise of its own,
// and the control loop on another), and building a fresh Env, platform,
// deployment and warm pool for every request made it 182. The object budget
// has less slack than the 17 objects the master invocation's own process and
// promise cost. The bytes are pinned as tightly: 4040 B (4248 B before the
// recycling, 4952 B before the inline master), where a tensor of its own for
// every inner unit output made it 120 KB. The byte budget has less slack
// than the demo model's smallest inner unit output is big (fc's 40 B), so
// any one of them allocated again breaks it. A change that allocates less
// lowers both budgets. One worker, so
// par.For spawns nothing; the minimum of several runs, so a collection that
// empties the scratch pool between two of them does not count.
func TestInferAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget, budgetBytes, regression = 80, 4064, 17
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
	in := filled(0.5, 3, 32, 32)
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
	if allocs > budget || budget-allocs >= regression {
		t.Fatalf("a request allocates %v objects, budget %d with less slack than %d", allocs, budget, regression)
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

// TestPredictAllocationBudget pins what one warm /v1/predict call allocates
// through httptest — the request and recorder, reading and decoding the
// body, the inference TestInferAllocationBudget pins, and the reply — so the
// pooled body and input buffers cannot regress: 102 objects and 11024 B with
// one worker, where a body and an input array of their own for every request
// made it 126 objects and 65296 B. The object budget has less slack than
// the 17 objects TestInferAllocationBudget guards against, which show here
// too. The byte budget has less slack than the demo request's input array
// (12 KB) is big, and its body is three times that. A change that allocates
// less lowers both budgets. One worker and the minimum of several runs, as
// there.
func TestPredictAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budget, budgetBytes, regression = 112, 13000, 17
	s, err := newServer("", "lambda", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer par.SetParallelism(1)()
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 32, 32)
	body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		t.Fatal(err)
	}
	inputBytes := uint64(tensor.SizeBytes(x.Shape()))
	predict := func() {
		rec := httptest.NewRecorder()
		s.handlePredict(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body)
		}
	}
	for i := 0; i < cap(s.engines); i++ {
		predict()
	}
	allocs := testing.AllocsPerRun(50, predict)
	t.Logf("%v objects per request", allocs)
	if allocs > budget || budget-allocs >= regression {
		t.Fatalf("a request allocates %v objects, budget %d with less slack than %d", allocs, budget, regression)
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		predict()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B per request; input array %d B, body %d B", least, inputBytes, len(body))
	if least > budgetBytes || budgetBytes-least >= inputBytes {
		t.Errorf("a request allocates %d B, budget %d B with less slack than %d B", least, budgetBytes, inputBytes)
	}
}

// TestPartitionedPredictAllocationBudget is TestPredictAllocationBudget for
// a request that is tensor-sized: a 3×224×224 input (588 KiB, a 1.6 MB body)
// into a CNN of two convolutions whose latency-optimal plan on the knix
// profile (whose cheap invocations make a split pay on a forward this
// small) splits the first three units four ways, three of the parts on
// remote workers. A warm request must allocate no tensor: not its body or
// input array (the free list's), not a part's input rows (its graph cuts
// them into its arena), the parts' outputs or the join (the scratch
// pool's). What is left is headers, the simulation's processes and the JSON
// reply, 19.9 KB. 128 KiB is under a quarter of the input array, and under
// each of the body, the join, a part's input rows and the four parts'
// outputs together, so allocating any of them again breaks it (all of them
// made it 5.1 MB on resnet34). One worker and the minimum of several runs,
// as there.
func TestPartitionedPredictAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	const budgetBytes = 128 << 10
	g := graph.New("split-cnn", []int{3, 224, 224})
	g.MustAdd(nn.NewConv2D("c1", 3, 32, 3, 1, 1))
	g.MustAdd(nn.NewReLU("r1"))
	g.MustAdd(nn.NewConv2D("c2", 32, 32, 3, 2, 1))
	g.MustAdd(nn.NewReLU("r2"))
	g.MustAdd(nn.NewMaxPool2D("pool", 2, 2, 0))
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", 32, 10))
	g.Init(1)
	path := filepath.Join(t.TempDir(), g.Name+".glsm")
	if err := modelio.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(path, "knix", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	remote := 0
	for _, gp := range s.plan.Groups {
		if gp.Option.Dim == partition.DimSpatial {
			remote += gp.Option.Parts
			if gp.OnMaster {
				remote-- // part 0 is the master's
			}
		}
	}
	if remote == 0 {
		t.Fatalf("the plan %v has no spatial part on a remote worker", s.plan.Groups)
	}
	defer par.SetParallelism(1)()
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, g.InShape()...)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		t.Fatal(err)
	}
	predict := func() {
		rec := httptest.NewRecorder()
		s.handlePredict(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		var pr predictResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &pr); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("status %d, decode error %v: %s", rec.Code, err, rec.Body)
		}
		if got, err := tensor.FromData(pr.Output, pr.Shape...); err != nil || !tensor.Equal(got, want) {
			t.Fatalf("reply differs from graph.Forward (%v)", err)
		}
	}
	for i := 0; i < cap(s.engines); i++ {
		predict()
	}
	least := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 5; i++ {
		runtime.ReadMemStats(&before)
		predict()
		runtime.ReadMemStats(&after)
		least = min(least, after.TotalAlloc-before.TotalAlloc)
	}
	t.Logf("%d B per request; input array %d B, body %d B; %d parts on remote workers", least, x.Bytes(), len(body), remote)
	if least > budgetBytes {
		t.Errorf("a request allocates %d B, budget %d B", least, budgetBytes)
	}
}

// TestOversizedBodyIsNotKept: a valid demo-model request padded with a 32 MB
// string field, then four ordinary ones, leave the live heap within 4 MB of
// where it was. The free list drops the padded request's body rather than
// keep it for the life of the process, as it did before (33.8 MB live);
// keeps says which sets it takes back. Nor does it keep an input array grown
// by a request of twice the model's input, whose body alone it would keep.
func TestOversizedBodyIsNotKept(t *testing.T) {
	s, err := newServer("", "lambda", 1, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, 3, 32, 32)
	body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		t.Fatal(err)
	}
	predict := func(body []byte, code int) {
		rec := httptest.NewRecorder()
		s.handlePredict(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
		if rec.Code != code {
			t.Fatalf("status %d, want %d: %s", rec.Code, code, rec.Body)
		}
	}
	live := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	for i := 0; i < cap(s.engines); i++ {
		predict(body, http.StatusOK)
	}
	before := live()
	padded := slices.Concat(body[:len(body)-1], []byte(`,"pad":"`), bytes.Repeat([]byte("x"), 32<<20), []byte(`"}`))
	predict(padded, http.StatusOK)
	padded = nil
	for i := 0; i < 4; i++ {
		predict(body, http.StatusOK)
	}
	after := live()
	runtime.KeepAlive(s) // the server, free list and all, is live across the measurement
	t.Logf("live heap %.1f MB before the padded request, %.1f MB after", float64(before)/1e6, float64(after)/1e6)
	if after > before+4<<20 {
		t.Errorf("a padded request left %.1f MB live", float64(after-before)/1e6)
	}
	long := fmt.Sprintf(`{"shape":[%d],"input":[0%s]}`, 2*s.inputLen, strings.Repeat(",0", 2*s.inputLen-1))
	predict([]byte(long), http.StatusBadRequest)
	for i := len(s.buffers); i > 0; i-- {
		if b := <-s.buffers; cap(b.input) > s.inputLen {
			t.Errorf("the free list kept an input array of %d elements; the model takes %d", cap(b.input), s.inputLen)
		}
	}
}
