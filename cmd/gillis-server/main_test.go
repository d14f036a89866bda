package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/tensor"
)

var (
	srvOnce sync.Once
	testSrv *server
	srvErr  error
)

func demoServer(t *testing.T) *httptest.Server {
	t.Helper()
	srvOnce.Do(func() { testSrv, srvErr = newServer("", "lambda", 1, 2000, "") })
	if srvErr != nil {
		t.Fatal(srvErr)
	}
	ts := httptest.NewServer(testSrv.mux())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthz(t *testing.T) {
	ts := demoServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
}

func TestModelInfo(t *testing.T) {
	ts := demoServer(t)
	resp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var info modelInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	if info.Name != "demo-cnn" || info.Units == 0 || len(info.Plan) == 0 {
		t.Fatalf("bad model info: %+v", info)
	}
}

func TestPredict(t *testing.T) {
	ts := demoServer(t)
	in := filled(0.5, 3, 32, 32)
	body, err := json.Marshal(predictRequest{Shape: in.Shape(), Input: in.Data()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if len(pr.Output) != 10 || pr.LatencyMs <= 0 || pr.BilledMs <= 0 {
		t.Fatalf("bad prediction: %+v", pr)
	}
	var sum float64
	for _, v := range pr.Output {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-4 {
		t.Fatalf("softmax output sums to %v", sum)
	}
	// The HTTP answer must match direct local execution of the same model.
	want, err := testSrv.model.Forward(in)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range pr.Output {
		if v != want.Data()[i] {
			t.Fatal("served output differs from local execution")
		}
	}
}

// TestPredictBadRequests: a malformed body, and a well-formed one whose shape
// is not the model's, are the client's error — 400, answered before anything
// is deployed: no invocation, nothing billed, no gateway fault counted.
func TestPredictBadRequests(t *testing.T) {
	ts := demoServer(t)
	counters := []string{"platform.invocations", "platform.billed_ms", "gateway.queries", "gateway.faulted"}
	before := make(map[string]int64)
	for _, name := range counters {
		before[name] = testSrv.metrics.Counter(name).Value()
	}
	for _, body := range []string{
		"{not json",
		`{"shape":[2,2],"input":[1]}`,       // length mismatch
		`{"shape":[1,5,5],"input":[0,0,0]}`, // wrong shape for model too
		`{"shape":[3,8,8],"input":[` + strings.Repeat("0,", 3*8*8-1) + `0]}`, // well-formed, not the model's shape
	} {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader([]byte(body)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("request %.40q: status %d, want 400", body, resp.StatusCode)
		}
	}
	for _, name := range counters {
		if got := testSrv.metrics.Counter(name).Value(); got != before[name] {
			t.Errorf("%s moved %d -> %d on rejected requests", name, before[name], got)
		}
	}
}

func TestNewServerFromModelFile(t *testing.T) {
	g := models.DemoCNN()
	g.Init(9)
	path := filepath.Join(t.TempDir(), "demo.glsm")
	if err := modelio.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	s, err := newServer(path, "knix", 2, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	if s.model.Name != "demo-cnn" {
		t.Fatalf("loaded %q", s.model.Name)
	}
	// Weightless model files are rejected.
	if err := modelio.SaveFile(path, models.DemoCNN(), false); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(path, "knix", 2, 0, ""); err == nil {
		t.Fatal("expected no-weights error")
	}
	// A file in the first format version is refused at start-up, with what
	// to do about it.
	if err := modelio.SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, bytes.Replace(b, []byte(`{"version":2,`), []byte(`{"version":1,`), 1), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := newServer(path, "knix", 2, 0, ""); err == nil || !strings.Contains(err.Error(), "version 1") || !strings.Contains(err.Error(), "gillis export") {
		t.Fatalf("version-1 file: error %v, want one naming version 1 and `gillis export`", err)
	}
	if _, err := newServer("", "lambda", 1, 0, "no-such-model"); err == nil {
		t.Fatal("expected unknown-catalog-model error")
	}
}

func TestMetricsEndpoint(t *testing.T) {
	ts := demoServer(t)
	// A predict first, so the shared registry has data to report.
	in := filled(0.25, 3, 32, 32)
	body, _ := json.Marshal(predictRequest{Shape: in.Shape(), Input: in.Data()})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", mresp.StatusCode)
	}
	text, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"counter platform.invocations", "counter runtime.queries", "histogram runtime.query_latency_ms",
		// Requests are admitted through the serving gateway, so its
		// admission and SLO counters aggregate here too.
		"counter gateway.queries", "counter gateway.admitted", "counter gateway.served",
		"counter gateway.slo_attained", "histogram gateway.queue_wait_ms", "histogram gateway.total_ms",
	} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output misses %q:\n%s", want, text)
		}
	}
}

// TestPredictCatalogModel pins the multi-model mesh wiring: a -catalog
// server routes model-tagged requests through the mesh with real tensor
// math, reports the served model, keeps a loaded model resident on its
// engine, surfaces the mesh counters in /v1/metrics, and rejects models
// outside the catalog.
func TestPredictCatalogModel(t *testing.T) {
	s, err := newServer("", "lambda", 1, 0, "rnn-tiny2")
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	// /v1/model advertises the catalog.
	mresp, err := http.Get(ts.URL + "/v1/model")
	if err != nil {
		t.Fatal(err)
	}
	var info modelInfo
	if err := json.NewDecoder(mresp.Body).Decode(&info); err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if len(info.Catalog) != 1 || info.Catalog[0] != "rnn-tiny2" {
		t.Fatalf("catalog not advertised: %+v", info)
	}

	in := filled(0.5, 16, 320)
	body, err := json.Marshal(predictRequest{Model: "rnn-tiny2", Shape: in.Shape(), Input: in.Data()})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, raw)
	}
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if pr.Model != "rnn-tiny2" || len(pr.Output) != 4000 || pr.LatencyMs <= 0 {
		t.Fatalf("bad catalog prediction: model=%q out=%d lat=%.1f", pr.Model, len(pr.Output), pr.LatencyMs)
	}
	var sum float64
	for _, v := range pr.Output {
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-3 {
		t.Fatalf("softmax output sums to %v", sum)
	}

	// Each engine loads the model on its first request for it; every later
	// request on that engine finds it resident.
	engines := runtime.GOMAXPROCS(0)
	k := 2*engines + 1
	for i := 1; i < k; i++ {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	hits, loads := s.metrics.Counter("mesh.hits").Value(), s.metrics.Counter("mesh.loads.rnn-tiny2").Value()
	if hits < int64(k-engines) || loads > int64(engines) {
		t.Errorf("%d requests on %d engines: %d mesh hits and %d loads, want at least %d and at most %d",
			k, engines, hits, loads, k-engines, engines)
	}

	// A model outside the catalog is a client error, and so is a shape that
	// is the primary model's and not the catalog model's.
	primary := filled(0.5, 3, 32, 32)
	for _, req := range []predictRequest{
		{Model: "resnet50", Shape: in.Shape(), Input: in.Data()},
		{Model: "rnn-tiny2", Shape: primary.Shape(), Input: primary.Data()},
	} {
		bad, _ := json.Marshal(req)
		bresp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		bresp.Body.Close()
		if bresp.StatusCode != http.StatusBadRequest {
			t.Fatalf("model %q with shape %v got status %d, want 400", req.Model, req.Shape, bresp.StatusCode)
		}
	}

	// Mesh accounting reaches the shared registry.
	tresp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer tresp.Body.Close()
	text, err := io.ReadAll(tresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"counter mesh.misses", "counter mesh.loads.rnn-tiny2"} {
		if !strings.Contains(string(text), want) {
			t.Errorf("metrics output misses %q:\n%s", want, text)
		}
	}
}

// TestPredictRespectsSLOFlag pins the gateway wiring: a served demo query
// well under the generous test SLO reports sloOk.
func TestPredictRespectsSLOFlag(t *testing.T) {
	ts := demoServer(t)
	in := filled(0.1, 3, 32, 32)
	body, _ := json.Marshal(predictRequest{Shape: in.Shape(), Input: in.Data()})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var pr predictResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	if !pr.SLOOk {
		t.Errorf("warm demo inference (%.1f ms) should be within the %0.f ms test SLO", pr.LatencyMs, 2000.0)
	}
}

// TestPredictReportsQueueAndBatch pins the per-query accounting fields: a
// single-arrival replay is served alone (batch size 1) with no admission
// queueing, and both fields must round-trip the response JSON alongside
// sloOk.
func TestPredictReportsQueueAndBatch(t *testing.T) {
	ts := demoServer(t)
	in := filled(0.75, 3, 32, 32)
	body, _ := json.Marshal(predictRequest{Shape: in.Shape(), Input: in.Data()})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]json.RawMessage
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"queueMs", "batchSize", "sloOk"} {
		if _, ok := fields[key]; !ok {
			t.Errorf("response misses %q:\n%s", key, raw)
		}
	}
	var pr predictResponse
	if err := json.Unmarshal(raw, &pr); err != nil {
		t.Fatal(err)
	}
	if pr.BatchSize != 1 {
		t.Errorf("lone query served with batch size %d, want 1", pr.BatchSize)
	}
	if pr.QueueMs != 0 {
		t.Errorf("lone query with MaxInFlight 1 queued %.3f ms, want 0", pr.QueueMs)
	}
}

// TestServesFusedGraph pins that Real inference runs the operator-fused
// graph — for the primary model and for a -catalog model: fewer nodes, some
// of them convolutions with a folded BatchNorm or ReLU epilogue — and that
// fusing is invisible from outside: the same units, and replies bit-equal to
// the unfused graph's own forward.
func TestServesFusedGraph(t *testing.T) {
	loaded := models.DemoCNN()
	loaded.Init(9)
	path := filepath.Join(t.TempDir(), "demo.glsm")
	if err := modelio.SaveFile(path, loaded, true); err != nil {
		t.Fatal(err)
	}
	const seed = 1
	s, err := newServer(path, "lambda", seed, 0, "mobilenet-mini")
	if err != nil {
		t.Fatal(err)
	}
	inCatalog, err := models.ByName("mobilenet-mini")
	if err != nil {
		t.Fatal(err)
	}
	inCatalog.Init(seed)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	for _, tc := range []struct {
		model   string
		unfused *graph.Graph
		units   []*partition.Unit
	}{
		{"", loaded, s.units},
		{"mobilenet-mini", inCatalog, s.catalog[0].Units},
	} {
		nodes, fused := 0, 0
		for _, u := range tc.units {
			nodes += u.Sub.Len()
			for _, n := range u.Sub.Nodes() {
				if c, ok := n.Op.(*nn.Conv2D); ok && (c.Scale != nil || c.Relu) {
					fused++
				}
			}
		}
		if nodes >= tc.unfused.Len() || fused == 0 {
			t.Errorf("model %q: serving %d nodes, %d of them fused convolutions; the unfused graph has %d", tc.model, nodes, fused, tc.unfused.Len())
		}
		plain, err := partition.Linearize(tc.unfused)
		if err != nil {
			t.Fatal(err)
		}
		if len(plain) != len(tc.units) {
			t.Errorf("model %q: %d units served, the unfused graph linearizes to %d", tc.model, len(tc.units), len(plain))
		}

		x := tensor.Rand(rand.New(rand.NewSource(5)), 1, tc.unfused.InShape()...)
		want, err := tc.unfused.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(predictRequest{Model: tc.model, Shape: x.Shape(), Input: x.Data()})
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var pr predictResponse
		err = json.NewDecoder(resp.Body).Decode(&pr)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("model %q: status %d, decode error %v", tc.model, resp.StatusCode, err)
		}
		if !tensor.ShapeEqual(pr.Shape, want.Shape()) {
			t.Fatalf("model %q: reply shape %v, want %v", tc.model, pr.Shape, want.Shape())
		}
		for i, v := range want.Data() {
			if math.Float32bits(pr.Output[i]) != math.Float32bits(v) {
				t.Fatalf("model %q: output[%d] = %v, the unfused forward gives %v", tc.model, i, pr.Output[i], v)
			}
		}
	}
}

// TestPredictLimits pins the request hardening: shapes over the rank or
// element caps, non-positive or overflowing dimensions, an input whose
// length is not the shape's product, and oversized bodies are all 400s.
func TestPredictLimits(t *testing.T) {
	ts := demoServer(t)
	for name, body := range map[string]string{
		"rank":      `{"shape":[1,1,1,1,1,1,1,3,32,32],"input":[0]}`,
		"elements":  `{"shape":[4096,4096],"input":[0]}`,
		"overflow":  `{"shape":[4294967296,4294967296],"input":[]}`,
		"zero dim":  `{"shape":[3,0,32],"input":[]}`,
		"negative":  `{"shape":[-3,-32,32],"input":[0]}`,
		"too short": `{"shape":[3,32,32],"input":[0,0,0]}`,
		"too long":  `{"shape":[1],"input":[0,0]}`,
		"no shape":  `{"input":[0]}`,
		"body size": `{"shape":[1],"input":[0],"pad":"` + strings.Repeat("x", maxBodyBytes) + `"}`,
	} {
		resp, err := http.Post(ts.URL+"/v1/predict", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
}

// TestReadBody covers the lengths a request can declare: the true one, none
// (chunked), one the body falls short of, and one over the limit, which must
// fail on the limit and not allocate what it claims.
func TestReadBody(t *testing.T) {
	const text = `{"shape":[1],"input":[0]}`
	for _, tc := range []struct {
		name     string
		declared int64
		ok       bool
	}{
		{"declared", int64(len(text)), true},
		{"undeclared", -1, true},
		{"short body", int64(len(text)) + 5, false},
		{"over the limit", maxBodyBytes + 1, false},
	} {
		sent := text
		if tc.declared > maxBodyBytes {
			sent += strings.Repeat(" ", maxBodyBytes)
		}
		r := httptest.NewRequest(http.MethodPost, "/v1/predict", strings.NewReader(sent))
		r.ContentLength = tc.declared
		body, err := readBody(httptest.NewRecorder(), r, nil)
		if (err == nil) != tc.ok || tc.ok && string(body) != text {
			t.Errorf("%s: body %q, error %v", tc.name, body, err)
		}
	}
}

// filled returns a tensor of the given shape with every element v.
func filled(v float32, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	for i := range t.Data() {
		t.Data()[i] = v
	}
	return t
}
