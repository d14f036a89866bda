package core

import (
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/perf"
	"gillis/internal/platform"
)

func benchModelAndUnits(b *testing.B, name string) (*perf.Model, []*partition.Unit) {
	b.Helper()
	m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
	if err != nil {
		b.Fatal(err)
	}
	g, err := models.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	units, err := partition.Linearize(g)
	if err != nil {
		b.Fatal(err)
	}
	return m, units
}

func BenchmarkLatencyOptimalVGG16(b *testing.B) {
	m, units := benchModelAndUnits(b, "vgg16")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := LatencyOptimal(m, units, Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLatencyOptimalCold is a cold start's planning: every op fits a
// fresh model and plans with it on a fresh table, as a server boot, a
// replay's set-up and an adaptive replan do.
// BenchmarkLatencyOptimalVGG16 reuses one fitted model.
func BenchmarkLatencyOptimalCold(b *testing.B) {
	resnet34, err := models.ByName("resnet34")
	if err != nil {
		b.Fatal(err)
	}
	for _, bc := range []struct {
		name string
		g    *graph.Graph
	}{{"resnet34", resnet34}, {"demo-cnn", demoSizeCNN()}} {
		b.Run(bc.name, func(b *testing.B) {
			units, err := partition.Linearize(bc.g)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m, err := perf.Build(platform.AWSLambda(), 1, 2, 300)
				if err != nil {
					b.Fatal(err)
				}
				if _, _, err := LatencyOptimal(m, units, Config{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// demoSizeCNN has the layers of gillis-server's built-in model, the one the
// http_small workload serves.
func demoSizeCNN() *graph.Graph {
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

func BenchmarkSLOAwareEpisode(b *testing.B) {
	m, units := benchModelAndUnits(b, "vgg16")
	_, lo, err := LatencyOptimal(m, units, Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// One policy-gradient batch (10 rollouts) per iteration.
		if _, err := SLOAware(m, units, lo.LatencyMs*2, SLOConfig{Episodes: 10, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}
