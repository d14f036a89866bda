// Command gillis-server exposes a Gillis deployment over HTTP: real
// inference (exact tensor math) runs through the serving gateway and the
// fork-join runtime on a simulated serverless platform that stays resident
// between requests. It demonstrates the end-to-end serving path a
// production front end would wrap around Gillis, and its /v1/metrics
// endpoint aggregates the gateway's admission and SLO counters across
// requests.
//
// Endpoints:
//
//	GET  /healthz     — liveness
//	GET  /v1/model    — model metadata and the active plan
//	POST /v1/predict  — {"shape":[3,32,32],"input":[...]} → prediction
//	GET  /v1/metrics  — plain-text counters and histograms across all requests
//
// Usage:
//
//	gillis-server [-addr :8080] [-modelfile m.glsm] [-platform lambda]
//	              [-slo-ms 500] [-catalog rnn-tiny2,mobilenet-mini]
//
// Without -modelfile a small built-in demo CNN is served. -slo-ms sets the
// per-query latency deadline tracked by the gateway.slo_attained /
// gateway.slo_violated counters (0 disables the deadline).
//
// -catalog additionally serves the named zoo models through the multi-model
// mesh: a predict request naming one of them ({"model":"rnn-tiny2", ...})
// is routed by the mesh's placement layer — paying a model load on first
// use, hitting residency afterwards — and the mesh.hits / mesh.misses /
// mesh.loads counters aggregate in /v1/metrics. Requests without a model
// field keep serving the primary model exactly as before.
//
// The server keeps one serving engine per GOMAXPROCS: a simulation with the
// platform, the prewarmed primary deployment and, with -catalog, the mesh,
// built at start-up. A request takes a free engine, is admitted at that
// engine's virtual now, and hands the engine back, so warm instances, mesh
// residency and the platform's random streams carry over from one request
// to the next on the same engine.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	goruntime "runtime"
	"strings"
	"time"

	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/graph"
	"gillis/internal/mesh"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
	"gillis/internal/runtime"
	"gillis/internal/simnet"
	"gillis/internal/tensor"
	"gillis/internal/trace"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	modelFile := flag.String("modelfile", "", "ONNX-lite model with weights (default: built-in demo CNN)")
	platformName := flag.String("platform", "lambda", "platform: lambda, gcf, or knix")
	seed := flag.Int64("seed", 1, "seed")
	sloMs := flag.Float64("slo-ms", 0, "per-query latency SLO in simulated ms (0 = no deadline)")
	catalogFlag := flag.String("catalog", "", "comma-separated zoo models additionally served through the multi-model mesh")
	flag.Parse()

	srv, err := newServer(*modelFile, *platformName, *seed, *sloMs, *catalogFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gillis-server:", err)
		os.Exit(1)
	}
	log.Printf("serving %s on %s (platform %s, %d plan groups, %d catalog models, %d engines, convolution kernel %s)",
		srv.model.Name, *addr, *platformName, len(srv.plan.Groups), len(srv.catalog), cap(srv.engines), nn.KernelName())
	log.Fatal(http.ListenAndServe(*addr, srv.mux()))
}

// server holds the loaded model and its plan; each request runs one
// simulated fork-join inference with real tensor math on a resident engine,
// admitted through the serving gateway. metrics is shared by every engine's
// platform, so /v1/metrics aggregates both platform and gateway counters
// over the server's lifetime.
type server struct {
	model   *graph.Graph
	units   []*partition.Unit
	plan    *partition.Plan
	cfg     platform.Config
	seed    int64
	sloMs   float64
	metrics *trace.Registry
	// catalog holds the zoo models additionally served through the
	// multi-model mesh (empty without -catalog); catalogIn maps each one's
	// ID to its input shape.
	catalog   []mesh.ModelSpec
	catalogIn map[string][]int
	// engines is the free list: GOMAXPROCS engines, so as many requests
	// compute at once as there are threads to run their forwards.
	engines chan *engine
}

// engine is one resident simulation: an Env with a platform on it, the
// primary model deployed and prewarmed on that platform, and with -catalog a
// mesh on the same platform that the whole catalog is registered with. Like
// any Env it takes no lock (DESIGN §3): it belongs to the goroutine that took
// it from the free list until that goroutine puts it back.
type engine struct {
	primary *runtime.Deployment
	mesh    *mesh.Mesh // nil without -catalog
}

func newServer(modelFile, platformName string, seed int64, sloMs float64, catalog string) (*server, error) {
	cfg, err := platform.ByName(platformName)
	if err != nil {
		return nil, err
	}
	var g *graph.Graph
	if modelFile != "" {
		g, err = modelio.LoadFile(modelFile)
		if err != nil {
			return nil, err
		}
		if !g.Initialized() {
			return nil, fmt.Errorf("model %q has no weights; export with -weights", modelFile)
		}
	} else {
		g = demoModel()
		g.Init(seed)
	}
	// Serve the operator-fused graph: bit-equal outputs, the same units,
	// fewer passes over every activation.
	if g, _, err = graph.Fuse(g); err != nil {
		return nil, err
	}
	units, err := partition.Linearize(g)
	if err != nil {
		return nil, err
	}
	m, err := perf.Build(cfg, seed, 2, 300)
	if err != nil {
		return nil, err
	}
	plan, _, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		return nil, err
	}
	specs, err := catalogSpecs(catalog, seed)
	if err != nil {
		return nil, err
	}
	catalogIn := make(map[string][]int, len(specs))
	for _, spec := range specs {
		catalogIn[spec.ID] = spec.Units[0].InShape
	}
	s := &server{model: g, units: units, plan: plan, cfg: cfg, seed: seed, sloMs: sloMs,
		metrics: trace.NewRegistry(), catalog: specs, catalogIn: catalogIn}
	n := goruntime.GOMAXPROCS(0)
	s.engines = make(chan *engine, n)
	for i := 0; i < n; i++ {
		e, err := s.newEngine()
		if err != nil {
			return nil, err
		}
		s.engines <- e
	}
	return s, nil
}

// newEngine builds one engine. Its platform records into the server's
// registry. The primary model is prewarmed (§III-A's warm-up pings) and
// every catalog model is registered with a single-instance mesh; nothing is
// resident there until a request loads it.
func (s *server) newEngine() (*engine, error) {
	p := platform.New(simnet.NewEnv(), s.cfg, s.seed)
	p.UseMetrics(s.metrics)
	d, err := runtime.Deploy(p, s.units, s.plan, runtime.Real)
	if err != nil {
		return nil, err
	}
	if err := d.Prewarm(); err != nil {
		return nil, err
	}
	e := &engine{primary: d}
	if len(s.catalog) > 0 {
		e.mesh, err = mesh.New(p, mesh.Config{
			Instances:     1,
			InstanceMemMB: s.cfg.WeightBudgetMB,
			Mode:          runtime.Real,
		}, s.catalog)
		if err != nil {
			return nil, err
		}
	}
	return e, nil
}

// withEngine runs fn on an engine taken from the free list and puts an
// engine back on every path. An engine fn has failed on, or panicked on, may
// hold a simulation stopped part-way (processes parked for ever, a queue
// half-served), so a freshly built one takes its place; were the engine
// simply lost, the pool would shrink with every such request until the
// server hung.
func (s *server) withEngine(fn func(*engine) error) error {
	e := <-s.engines
	clean := false
	defer func() {
		if !clean {
			// A rebuild fails only where the start-up build did; then the
			// old engine goes back, so its requests fail instead of hanging.
			if fresh, err := s.newEngine(); err == nil {
				e = fresh
			}
		}
		s.engines <- e
	}()
	err := fn(e)
	clean = err == nil
	return err
}

// catalogSpecs resolves the -catalog list into mesh catalog entries: each
// zoo model initialized with real weights and planned as a single
// all-on-master group (the mesh demo studies placement and residency, not
// partition structure).
func catalogSpecs(catalog string, seed int64) ([]mesh.ModelSpec, error) {
	if catalog == "" {
		return nil, nil
	}
	var specs []mesh.ModelSpec
	for _, name := range strings.Split(catalog, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		g, err := models.ByName(name)
		if err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		g.Init(seed)
		if g, _, err = graph.Fuse(g); err != nil {
			return nil, fmt.Errorf("catalog: %w", err)
		}
		units, err := partition.Linearize(g)
		if err != nil {
			return nil, fmt.Errorf("catalog %s: %w", name, err)
		}
		specs = append(specs, mesh.ModelSpec{ID: name, Units: units, Plan: partition.DefaultPlan(name, units)})
	}
	if len(specs) == 0 {
		return nil, fmt.Errorf("catalog: no model names in %q", catalog)
	}
	return specs, nil
}

// demoModel is the built-in CNN served when no model file is given.
func demoModel() *graph.Graph {
	g := graph.New("demo-cnn", []int{3, 32, 32})
	g.MustAdd(nn.NewConv2D("stem", 3, 16, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 16))
	g.MustAdd(nn.NewReLU("stem_relu"))
	g.MustAdd(nn.NewMaxPool2D("pool", 2, 2, 0))
	g.MustAdd(nn.NewConv2D("conv2", 16, 32, 3, 1, 1))
	g.MustAdd(nn.NewReLU("conv2_relu"))
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", 32, 10))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g
}

func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /v1/model", s.handleModel)
	mux.HandleFunc("POST /v1/predict", s.handlePredict)
	mux.HandleFunc("GET /v1/metrics", s.handleMetrics)
	return mux
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprint(w, s.metrics.Summary())
}

// modelInfo is the /v1/model response body.
type modelInfo struct {
	Name     string   `json:"name"`
	InShape  []int    `json:"inShape"`
	Units    int      `json:"units"`
	ParamsMB float64  `json:"paramsMB"`
	Platform string   `json:"platform"`
	Plan     []string `json:"plan"`
	// Catalog lists the zoo models additionally served through the
	// multi-model mesh; omitted without -catalog.
	Catalog []string `json:"catalog,omitempty"`
}

func (s *server) handleModel(w http.ResponseWriter, r *http.Request) {
	info := modelInfo{
		Name:     s.model.Name,
		InShape:  s.model.InShape(),
		Units:    len(s.units),
		ParamsMB: float64(s.model.ParamBytes()) / 1e6,
		Platform: s.cfg.Name,
	}
	for _, spec := range s.catalog {
		info.Catalog = append(info.Catalog, spec.ID)
	}
	for gi, gp := range s.plan.Groups {
		info.Plan = append(info.Plan, fmt.Sprintf("group %d: units %d..%d %s", gi+1, gp.First, gp.Last, gp.Option))
	}
	writeJSON(w, http.StatusOK, info)
}

// predictRequest is the /v1/predict request body. Model names a -catalog
// entry to serve through the multi-model mesh; empty serves the primary
// model.
type predictRequest struct {
	Model string    `json:"model,omitempty"`
	Shape []int     `json:"shape"`
	Input []float32 `json:"input"`
}

// predictResponse is the /v1/predict response body.
type predictResponse struct {
	Model     string    `json:"model,omitempty"` // catalog model (mesh-routed requests)
	Shape     []int     `json:"shape"`
	Output    []float32 `json:"output"`
	LatencyMs float64   `json:"latencyMs"` // simulated serverless latency
	BilledMs  int64     `json:"billedMs"`
	QueueMs   float64   `json:"queueMs"`   // admission-queue (and batch-forming) wait
	BatchSize int       `json:"batchSize"` // size of the admission unit the query rode in (>= 1)
	SLOOk     bool      `json:"sloOk"`     // within -slo-ms (always true when unset)
}

func (s *server) handlePredict(w http.ResponseWriter, r *http.Request) {
	body, err := readBody(w, r)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("read request: %w", err))
		return
	}
	req, err := decodePredictRequest(body)
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode request: %w", err))
		return
	}
	// The shape must be the target model's: a request of another shape is
	// the client's error, answered before anything is deployed, invoked or
	// billed. (It also bounds what FromData multiplies.)
	name, want := s.model.Name, s.model.InShape()
	if req.Model != "" {
		in, ok := s.catalogIn[req.Model]
		if !ok {
			writeError(w, http.StatusBadRequest, fmt.Errorf("model not in -catalog: %q", req.Model))
			return
		}
		name, want = req.Model, in
	}
	if !tensor.ShapeEqual(req.Shape, want) {
		writeError(w, http.StatusBadRequest, fmt.Errorf("shape %v: model %s takes %v", req.Shape, name, want))
		return
	}
	input, err := tensor.FromData(req.Input, req.Shape...)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	res, err := s.infer(req.Model, input)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// readBody reads a request body of at most maxBodyBytes: into one buffer of
// the length the request declares, where it declares one within the limit,
// instead of the doubling buffers io.ReadAll copies a 2 MB body through.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if r.ContentLength <= 0 || r.ContentLength > maxBodyBytes {
		return io.ReadAll(body)
	}
	// net/http ends the body at the declared length, so this is all of it.
	buf := make([]byte, r.ContentLength)
	_, err := io.ReadFull(body, buf)
	return buf, err
}

// infer runs one inference with real tensor math on a resident engine, as a
// single-arrival replay through the serving gateway admitted at the engine's
// virtual now, so the gateway's admission and SLO counters accumulate in the
// shared metrics registry. The primary model (model == "") is served by the
// engine's prewarmed deployment. A catalog model is routed by the engine's
// mesh: loaded on the engine's first request for it (billed like autoscaler
// prewarming), resident afterwards, and the mesh's hit/miss/load counters
// accumulate in the registry too.
func (s *server) infer(model string, input *tensor.Tensor) (*predictResponse, error) {
	cfg := gateway.Config{
		MaxInFlight: 1,
		SLOMs:       s.sloMs,
		Input:       func(int) *tensor.Tensor { return input },
	}
	var outs []gateway.Outcome
	err := s.withEngine(func(e *engine) error {
		var backend gateway.Backend = e.primary
		if model != "" {
			backend, cfg.Router = e.mesh, e.mesh
			cfg.Model = func(int) string { return model }
		}
		var err error
		// The dispatcher sleeps to each arrival instant, so an arrival at 0
		// on a clock already past it is admitted at the engine's now.
		_, outs, err = gateway.Run(backend, []time.Duration{0}, cfg)
		return err
	})
	if err != nil {
		return nil, err
	}
	o := outs[0]
	if o.Err != "" {
		return nil, errors.New(o.Err)
	}
	return &predictResponse{
		Model:     o.Model,
		Shape:     o.Output.Shape(),
		Output:    o.Output.Data(),
		LatencyMs: o.LatencyMs,
		BilledMs:  o.BilledMs,
		QueueMs:   o.QueueMs,
		BatchSize: o.BatchSize,
		SLOOk:     o.SLOOK,
	}, nil
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}
