package main

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/modelio"
	"gillis/internal/models"
	"gillis/internal/tensor"
)

// BenchmarkServeResnet34 is benchmark/'s http_resnet34 workload without the
// sockets: resnet34 loaded from a model file as `-modelfile` loads it, and two
// closed-loop callers posting one pre-encoded 3×224×224 body through the real
// handler. Every reply is compared bit for bit with one graph.Forward of the
// unfused model, as benchmark/ does, so a profiling run is a correctness run.
// Its CPU profile is where DESIGN.md §11's shares of serving CPU (the
// windows' cuts, for one) come from:
//
//	go test ./cmd/gillis-server -run xxx -bench ServeResnet34 -benchtime 60x -benchmem -cpuprofile cpu.pprof
func BenchmarkServeResnet34(b *testing.B) {
	if testing.Short() {
		b.Skip("loads resnet34 and serves it: seconds per op")
	}
	g, err := models.ByName("resnet34")
	if err != nil {
		b.Fatal(err)
	}
	g.Init(7)
	benchServe(b, g)
}

// BenchmarkNewServerResnet34 times the server's set-up from a saved resnet34
// file, as `-modelfile` starts it: the load, fusion, planning and the
// engines' deployments. It is http_resnet34's setup_s without the process
// start and the first request.
//
//	go test ./cmd/gillis-server -run xxx -bench NewServerResnet34 -benchtime 10x
func BenchmarkNewServerResnet34(b *testing.B) {
	if testing.Short() {
		b.Skip("initializes and saves resnet34's 87 MB of weights first")
	}
	g, err := models.ByName("resnet34")
	if err != nil {
		b.Fatal(err)
	}
	g.Init(7)
	path := filepath.Join(b.TempDir(), g.Name+".glsm")
	if err := modelio.SaveFile(path, g, true); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := newServer(path, "lambda", 1, 0, ""); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkServeSmall is the http_small twin: the demo model, where the
// serving path around the forward — decoding, the engine's gateway replay,
// encoding — is most of the cost.
//
//	go test ./cmd/gillis-server -run xxx -bench ServeSmall -benchtime 20000x -benchmem -cpuprofile cpu.pprof
func BenchmarkServeSmall(b *testing.B) {
	g := models.DemoCNN()
	g.Init(7)
	benchServe(b, g)
}

// benchServe saves g to a model file, serves it as `-modelfile` does, and
// runs b.N requests from two closed-loop callers, each reply checked bit for
// bit against g.Forward.
func benchServe(b *testing.B, g *graph.Graph) {
	path := filepath.Join(b.TempDir(), g.Name+".glsm")
	if err := modelio.SaveFile(path, g, true); err != nil {
		b.Fatal(err)
	}
	srv, err := newServer(path, "lambda", 1, 0, "")
	if err != nil {
		b.Fatal(err)
	}
	mux := srv.mux()
	x := tensor.Rand(rand.New(rand.NewSource(1)), 1, g.InShape()...)
	body, err := json.Marshal(predictRequest{Shape: x.Shape(), Input: x.Data()})
	if err != nil {
		b.Fatal(err)
	}
	want, err := g.Forward(x)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	var next atomic.Int64
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for next.Add(1) <= int64(b.N) {
				rec := httptest.NewRecorder()
				mux.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					b.Errorf("status %d: %s", rec.Code, rec.Body)
					return
				}
				var res predictResponse
				if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
					b.Error(err)
					return
				}
				got, err := tensor.FromData(res.Output, res.Shape...)
				if err != nil || !tensor.Equal(got, want) {
					b.Errorf("reply differs from graph.Forward (%v)", err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
