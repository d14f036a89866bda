package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync/atomic"
	"syscall"
	"time"

	"gillis/internal/core"
	"gillis/internal/gateway"
	"gillis/internal/graph"
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

// The http_* workloads drive a built cmd/gillis-server over loopback HTTP.
// The server is a black box: every reply is checked bit for bit against an
// in-process graph.Forward of the same model and input, and in traced
// slices each op also runs an in-process replica of the public-call
// sequence the server's predict handler makes, to show where the time goes.

// weightSeed initializes the served models; the run's seed only draws
// inputs.
const weightSeed = 1

// smallCNN has the layers of gillis-server's built-in demo model.
func smallCNN() *graph.Graph {
	g := graph.New("small-cnn", []int{3, 32, 32})
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

// predictRequest and predictResponse are gillis-server's /v1/predict wire
// format.
type predictRequest struct {
	Model string    `json:"model,omitempty"`
	Shape []int     `json:"shape"`
	Input []float32 `json:"input"`
}

type predictResponse struct {
	Model     string    `json:"model,omitempty"`
	Shape     []int     `json:"shape"`
	Output    []float32 `json:"output"`
	LatencyMs float64   `json:"latencyMs"`
	BilledMs  int64     `json:"billedMs"`
	QueueMs   float64   `json:"queueMs"`
	BatchSize int       `json:"batchSize"`
	SLOOk     bool      `json:"sloOk"`
}

// httpServing is one http_* workload: a model file, a pool of inputs with
// their pre-encoded request bodies and reference outputs, and the server
// process serving them.
type httpServing struct {
	name      string
	serverBin string
	modelFile string
	model     *graph.Graph
	inputs    []*tensor.Tensor
	bodies    [][]byte
	want      []*tensor.Tensor
	next      []atomic.Int64 // per client: ops issued

	srv     *serverProc
	clients []*http.Client

	replica *replica // in-process copy of the server's deployment; traced runs only
}

// newHTTPServing builds the model (resnet34 or the small CNN), writes it to
// dir, and draws pool inputs from seed. traced also builds the in-process
// replica that traced ops run.
func newHTTPServing(name string, seed int64, serverBin, dir string, traced bool) (*httpServing, error) {
	w := &httpServing{name: name, serverBin: serverBin, next: make([]atomic.Int64, clients())}
	pool := 64
	if name == "http_resnet34" {
		g, err := models.ByName("resnet34")
		if err != nil {
			return nil, err
		}
		w.model = g
		// Each reference forward costs a third of a second; four distinct
		// inputs are enough to keep the server from seeing one tensor.
		pool = 4
	} else {
		w.model = smallCNN()
	}
	w.model.Init(weightSeed)
	w.modelFile = filepath.Join(dir, name+".glsm")
	if err := modelio.SaveFile(w.modelFile, w.model, true); err != nil {
		return nil, err
	}
	if traced {
		var err error
		if w.replica, err = newReplica(w.model); err != nil {
			return nil, err
		}
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < pool; i++ {
		x := tensor.Rand(rng, 1, w.model.InShape()...)
		body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
		if err != nil {
			return nil, err
		}
		y, err := w.model.Forward(x)
		if err != nil {
			return nil, err
		}
		w.inputs, w.bodies, w.want = append(w.inputs, x), append(w.bodies, body), append(w.want, y)
	}
	return w, nil
}

func (w *httpServing) start() error {
	srv, err := startServer(w.serverBin, "-modelfile", w.modelFile)
	if err != nil {
		return err
	}
	w.srv = srv
	w.clients = w.clients[:0]
	for range w.next {
		w.clients = append(w.clients, keepAliveClient())
	}
	// The set-up ends at the first correct reply.
	if err := srv.await(func() error { return w.op(0, nil) }); err != nil {
		w.stop()
		return fmt.Errorf("%s: %w", w.name, err)
	}
	return nil
}

func (w *httpServing) stop() {
	if w.srv != nil {
		w.srv.stop()
		w.srv = nil
	}
	for _, c := range w.clients {
		c.CloseIdleConnections()
	}
}

func (w *httpServing) cpu() (time.Duration, error) { return procCPU(w.srv.cmd.Process.Pid) }
func (w *httpServing) peakRSSMB() (float64, error) {
	return peakRSSMB(strconv.Itoa(w.srv.cmd.Process.Pid))
}
func (w *httpServing) spanNames() []string { return httpSpans }

var httpSpans = []string{
	"http_roundtrip", "json_decode", "tensor_from_data", "platform_new", "runtime_deploy",
	"runtime_prewarm", "gateway_run", "json_encode", "graph_forward", "http_remainder",
}

// replicaSpans are the spans replica.predict records.
var replicaSpans = httpSpans[1:8]

func (w *httpServing) op(c int, sp *opSpans) error {
	i := (int(w.next[c].Add(1)-1)*len(w.next) + c) % len(w.bodies)
	var reply []byte
	var err error
	sp.do("http_roundtrip", func() {
		reply, err = post(w.clients[c], w.srv.url+"/v1/predict", w.bodies[i])
	})
	if err != nil {
		return err
	}
	var res predictResponse
	if err := json.Unmarshal(reply, &res); err != nil {
		return fmt.Errorf("decode reply: %w", err)
	}
	if err := sameBits(res.Shape, res.Output, w.want[i]); err != nil {
		return fmt.Errorf("%s input %d: %w", w.name, i, err)
	}
	if sp == nil {
		return nil
	}
	sp.do("replica", func() {
		var out *tensor.Tensor
		if out, err = w.replica.predict(w.bodies[i], sp); err == nil {
			err = sameBits(out.Shape(), out.Data(), w.want[i])
		}
	})
	if err != nil {
		return fmt.Errorf("replica: %w", err)
	}
	sp.do("graph_forward", func() { _, err = w.model.Forward(w.inputs[i]) })
	return err
}

// sameBits reports whether a reply carries exactly want: same shape, same
// float32 bit patterns.
func sameBits(shape []int, data []float32, want *tensor.Tensor) error {
	if !tensor.ShapeEqual(shape, want.Shape()) {
		return fmt.Errorf("reply shape %v, want %v", shape, want.Shape())
	}
	for j, v := range want.Data() {
		if math.Float32bits(data[j]) != math.Float32bits(v) {
			return fmt.Errorf("reply output[%d] = %v, want %v (bitwise)", j, data[j], v)
		}
	}
	return nil
}

// replica holds what gillis-server's newServer builds, built the same way.
type replica struct {
	units   []*partition.Unit
	plan    *partition.Plan
	cfg     platform.Config
	metrics *trace.Registry
}

func newReplica(g *graph.Graph) (*replica, error) {
	units, err := partition.Linearize(g)
	if err != nil {
		return nil, err
	}
	cfg := platform.AWSLambda()
	m, err := perf.Build(cfg, 1, 2, 300)
	if err != nil {
		return nil, err
	}
	plan, _, err := core.LatencyOptimal(m, units, core.Config{})
	if err != nil {
		return nil, err
	}
	return &replica{units: units, plan: plan, cfg: cfg, metrics: trace.NewRegistry()}, nil
}

// predict makes the public calls gillis-server's handlePredict and infer
// make for one request body, each under its own span, and returns the
// encoded reply's output tensor.
func (r *replica) predict(body []byte, sp *opSpans) (*tensor.Tensor, error) {
	var (
		req   predictRequest
		input *tensor.Tensor
		p     *platform.Platform
		d     *runtime.Deployment
		outs  []gateway.Outcome
		err   error
	)
	sp.do("json_decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return nil, err
	}
	sp.do("tensor_from_data", func() { input, err = tensor.FromData(req.Input, req.Shape...) })
	if err != nil {
		return nil, err
	}
	sp.do("platform_new", func() {
		p = platform.New(simnet.NewEnv(), r.cfg, 1)
		p.UseMetrics(r.metrics)
	})
	sp.do("runtime_deploy", func() { d, err = runtime.Deploy(p, r.units, r.plan, runtime.Real) })
	if err != nil {
		return nil, err
	}
	sp.do("runtime_prewarm", func() { err = d.Prewarm() })
	if err != nil {
		return nil, err
	}
	sp.do("gateway_run", func() {
		_, outs, err = gateway.Run(d, []time.Duration{0}, gateway.Config{
			MaxInFlight: 1,
			Input:       func(int) *tensor.Tensor { return input },
		})
	})
	if err != nil {
		return nil, err
	}
	o := outs[0]
	if o.Err != "" {
		return nil, errors.New(o.Err)
	}
	sp.do("json_encode", func() {
		err = json.NewEncoder(io.Discard).Encode(predictResponse{
			Shape: o.Output.Shape(), Output: o.Output.Data(), LatencyMs: o.LatencyMs,
			BilledMs: o.BilledMs, QueueMs: o.QueueMs, BatchSize: o.BatchSize, SLOOk: o.SLOOK,
		})
	})
	return o.Output, err
}

// serverProc is one running gillis-server.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	stderr bytes.Buffer
	done   chan struct{} // closed when the process has been waited for
}

// startServer launches bin on a free loopback port with the extra args.
func startServer(bin string, args ...string) (*serverProc, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	if err := l.Close(); err != nil {
		return nil, err
	}
	s := &serverProc{url: "http://" + addr, done: make(chan struct{})}
	s.cmd = exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	s.cmd.Stderr = &s.stderr
	// The server must not outlive a benchmark that is killed outright.
	s.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := s.cmd.Start(); err != nil {
		return nil, err
	}
	addLiveServer(s)
	go func() {
		_ = s.cmd.Wait() // the exit status of a killed server carries nothing
		close(s.done)
	}()
	return s, nil
}

func (s *serverProc) alive() bool {
	select {
	case <-s.done:
		return false
	default:
		return true
	}
}

// await retries try until it succeeds. Only a refused connection — the
// server is not listening yet — is retried.
func (s *serverProc) await(try func() error) error {
	deadline := time.Now().Add(60 * time.Second)
	for {
		err := try()
		if err == nil {
			return nil
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) || !s.alive() {
			return fmt.Errorf("first reply: %w\nserver stderr:\n%s", err, s.stderr.String())
		}
		time.Sleep(time.Millisecond)
	}
}

// stop kills the server and returns once it has ended.
func (s *serverProc) stop() {
	_ = s.cmd.Process.Kill() // already-exited is fine
	<-s.done
	removeLiveServer(s)
}

// keepAliveClient returns a client that holds one connection open.
func keepAliveClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
		Timeout:   120 * time.Second,
	}
}

func post(c *http.Client, url string, body []byte) ([]byte, error) {
	return readOK(c.Post(url, "application/json", bytes.NewReader(body)))
}

func get(c *http.Client, url string) ([]byte, error) { return readOK(c.Get(url)) }

// readOK returns the body of a 200 reply.
func readOK(resp *http.Response, err error) ([]byte, error) {
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s %s: %s: %s", resp.Request.Method, resp.Request.URL, resp.Status, bytes.TrimSpace(b))
	}
	return b, nil
}
