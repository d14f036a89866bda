// Package profile implements Gillis's runtime-profiling phase (§IV-A):
// it executes representative operator configurations in a single serverless
// function to fit per-layer-type runtime regressions, and measures function
// communication round-trips to fit the bandwidth and the EMG invocation
// overhead distribution. The fitted artifacts feed the performance model
// (package perf) that guides both partitioning algorithms.
package profile

import (
	"fmt"
	"sort"

	"gillis/internal/nn"
	"gillis/internal/platform"
	"gillis/internal/simnet"
	"gillis/internal/stats"
)

// LayerSample is one profiled operator execution.
type LayerSample struct {
	Kind  nn.Kind
	FLOPs int64
	Bytes int64 // input + output + weight bytes touched
	Ms    float64
}

// layerProbe describes one operator configuration to profile.
type layerProbe struct {
	kind  nn.Kind
	flops int64
	bytes int64
}

// OpBytes estimates the bytes an operator touches for given input shapes:
// inputs + output + weights.
func OpBytes(op nn.Op, inShapes [][]int) (int64, error) {
	out, err := op.OutShape(inShapes...)
	if err != nil {
		return 0, err
	}
	total := int64(0)
	for _, s := range inShapes {
		n := int64(1)
		for _, d := range s {
			n *= int64(d)
		}
		total += n * 4
	}
	n := int64(1)
	for _, d := range out {
		n *= int64(d)
	}
	total += n * 4
	total += op.ParamCount() * 4
	return total, nil
}

// probeConfigs builds the sweep of operator configurations (§IV-A: "for
// each type of layer, we run it with various configurations").
func probeConfigs() ([]layerProbe, error) {
	var probes []layerProbe
	add := func(op nn.Op, inShape []int) error {
		b, err := OpBytes(op, [][]int{inShape})
		if err != nil {
			return fmt.Errorf("profile: probe %s: %w", op.Name(), err)
		}
		probes = append(probes, layerProbe{kind: op.Kind(), flops: op.FLOPs(inShape), bytes: b})
		return nil
	}
	// Convolutions across channel counts (including asymmetric in/out
	// ratios, which decorrelate FLOPs from bytes touched), kernels, and
	// resolutions.
	for _, c := range []int{16, 64, 128, 256, 512} {
		for _, ratio := range []int{1, 2, 4} {
			for _, hw := range []int{7, 14, 28, 56} {
				for _, k := range []int{1, 3, 5} {
					if err := add(nn.NewConv2D("p", c, c*ratio, k, 1, k/2), []int{c, hw, hw}); err != nil {
						return nil, err
					}
				}
			}
		}
	}
	if err := add(nn.NewConv2D("p", 3, 64, 7, 2, 3), []int{3, 224, 224}); err != nil {
		return nil, err
	}
	// Dense layers.
	for _, in := range []int{512, 2048, 4096, 25088} {
		for _, out := range []int{1000, 4096} {
			if err := add(nn.NewDense("p", in, out), []int{in}); err != nil {
				return nil, err
			}
		}
	}
	// LSTM layers: varying both hidden size and sequence length (FLOPs
	// scale with T·h² but weight bytes with h² alone, so sweeping T
	// decorrelates the regression features).
	for _, h := range []int{256, 512, 1024, 2048} {
		for _, steps := range []int{4, 16, 48} {
			if err := add(nn.NewLSTM("p", h, h), []int{steps, h}); err != nil {
				return nil, err
			}
		}
	}
	// Pooling, normalization, activations, residual adds, softmax, GAP.
	for _, c := range []int{64, 256, 512} {
		for _, hw := range []int{14, 56} {
			shape := []int{c, hw, hw}
			if err := add(nn.NewMaxPool2D("p", 2, 2, 0), shape); err != nil {
				return nil, err
			}
			if err := add(nn.NewAvgPool2D("p", 2, 2), shape); err != nil {
				return nil, err
			}
			if err := add(nn.NewBatchNorm("p", c), shape); err != nil {
				return nil, err
			}
			if err := add(nn.NewReLU("p"), shape); err != nil {
				return nil, err
			}
			if err := add(nn.NewGlobalAvgPool("p"), shape); err != nil {
				return nil, err
			}
			b, err := OpBytes(nn.NewAdd("p"), [][]int{shape, shape})
			if err != nil {
				return nil, err
			}
			probes = append(probes, layerProbe{kind: nn.KindAdd, flops: nn.NewAdd("p").FLOPs(shape, shape), bytes: b})
		}
	}
	for _, n := range []int{1000, 10000} {
		if err := add(nn.NewSoftmax("p"), []int{n}); err != nil {
			return nil, err
		}
	}
	if err := add(nn.NewFlatten("p"), []int{512, 7, 7}); err != nil {
		return nil, err
	}
	if err := add(nn.NewTakeLast("p"), []int{8, 2048}); err != nil {
		return nil, err
	}
	return probes, nil
}

// ProfileLayers executes the operator sweep on the platform (repeats runs
// per configuration to average noise) and returns the timing samples.
func ProfileLayers(cfg platform.Config, seed int64, repeats int) ([]LayerSample, error) {
	if repeats < 1 {
		repeats = 1
	}
	probes, err := probeConfigs()
	if err != nil {
		return nil, err
	}
	var samples []LayerSample
	_, err = platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		err := p.Register("probe", func(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
			pr, ok := payload.Data.(layerProbe)
			if !ok {
				return platform.Payload{}, fmt.Errorf("profile: bad probe payload %T", payload.Data)
			}
			ctx.ComputeOp(pr.flops, pr.bytes)
			return platform.Payload{}, nil
		})
		if err != nil {
			return err
		}
		if err := p.Prewarm("probe", 1); err != nil {
			return err
		}
		for _, pr := range probes {
			for r := 0; r < repeats; r++ {
				res, err := p.InvokeFrom(proc, "probe", platform.Payload{Data: pr})
				if err != nil {
					return err
				}
				samples = append(samples, LayerSample{Kind: pr.kind, FLOPs: pr.flops, Bytes: pr.bytes, Ms: res.HandlerMs})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return samples, nil
}

// Features returns the regression feature vector of a (FLOPs, bytes) pair:
// [1, GFLOPs, MB].
func Features(flops, bytes int64) []float64 {
	return []float64{1, float64(flops) / 1e9, float64(bytes) / 1e6}
}

// FitLayerModels fits a per-kind linear model Ms ≈ w · Features. Runtime
// noise is multiplicative, so rows are weighted by 1/Ms: the fit minimizes
// relative error, keeping small-operator predictions as accurate as large
// ones.
func FitLayerModels(samples []LayerSample) (map[nn.Kind][]float64, error) {
	byKind := make(map[nn.Kind][]LayerSample)
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	out := make(map[nn.Kind][]float64, len(byKind))
	for kind, ss := range byKind {
		var x [][]float64
		var y []float64
		for _, s := range ss {
			weight := 1 / s.Ms
			if s.Ms < 1e-3 {
				weight = 1e3
			}
			f := Features(s.FLOPs, s.Bytes)
			row := make([]float64, len(f))
			for i, v := range f {
				row[i] = v * weight
			}
			x = append(x, row)
			y = append(y, s.Ms*weight)
		}
		w, err := stats.FitLinear(x, y)
		if err != nil {
			return nil, fmt.Errorf("profile: fit %s: %w", kind, err)
		}
		out[kind] = w
	}
	return out, nil
}

// FitQuality reports the goodness of one layer-kind regression.
type FitQuality struct {
	Kind nn.Kind
	// Samples is the number of profiled executions.
	Samples int
	// R2 is the coefficient of determination of the weighted fit.
	R2 float64
	// MeanRelErr is the mean relative prediction error over the samples.
	MeanRelErr float64
}

// FitQualityReport evaluates fitted models against the samples they were
// trained on — the sanity check a profiling run should end with.
func FitQualityReport(samples []LayerSample, fits map[nn.Kind][]float64) []FitQuality {
	byKind := make(map[nn.Kind][]LayerSample)
	for _, s := range samples {
		byKind[s.Kind] = append(byKind[s.Kind], s)
	}
	var out []FitQuality
	for kind, ss := range byKind {
		w, ok := fits[kind]
		if !ok {
			continue
		}
		var mean float64
		for _, s := range ss {
			mean += s.Ms
		}
		mean /= float64(len(ss))
		var ssRes, ssTot, relErr float64
		for _, s := range ss {
			pred := stats.Dot(w, Features(s.FLOPs, s.Bytes))
			ssRes += (s.Ms - pred) * (s.Ms - pred)
			ssTot += (s.Ms - mean) * (s.Ms - mean)
			if s.Ms > 0 {
				d := (pred - s.Ms) / s.Ms
				if d < 0 {
					d = -d
				}
				relErr += d
			}
		}
		q := FitQuality{Kind: kind, Samples: len(ss), MeanRelErr: relErr / float64(len(ss))}
		if ssTot > 0 {
			q.R2 = 1 - ssRes/ssTot
		} else {
			q.R2 = 1
		}
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kind < out[j].Kind })
	return out
}

// CommProfile holds the fitted function-communication model.
type CommProfile struct {
	// NetMBps is the measured payload bandwidth.
	NetMBps float64
	// Overhead is the fitted EMG invocation-overhead distribution (ms).
	Overhead stats.EMG
}

// ProfileComm measures round-trips against an idle sink function and fits
// bandwidth (from large vs small payloads) and the EMG overhead
// distribution (from repeated fixed-size transfers), exactly as §IV-A
// profiles "transferring data of varying sizes through REST APIs".
func ProfileComm(cfg platform.Config, seed int64, runs int) (CommProfile, error) {
	if runs < 16 {
		runs = 16
	}
	const smallBytes, largeBytes = 100_000, 8_000_000
	var smallMs, largeMs []float64
	var overheadMs []float64
	_, err := platform.Run(cfg, seed, func(p *platform.Platform, proc *simnet.Proc) error {
		if err := p.Register("sink", func(ctx *platform.Ctx, payload platform.Payload) (platform.Payload, error) {
			return platform.Payload{}, nil
		}); err != nil {
			return err
		}
		if err := p.Prewarm("sink", 1); err != nil {
			return err
		}
		rt := func(bytes int64) (float64, error) {
			before := proc.Now()
			if _, err := p.InvokeFrom(proc, "sink", platform.Payload{Bytes: bytes}); err != nil {
				return 0, err
			}
			return float64(proc.Now()-before) / 1e6, nil
		}
		for i := 0; i < runs/2; i++ {
			ms, err := rt(smallBytes)
			if err != nil {
				return err
			}
			smallMs = append(smallMs, ms)
			ms, err = rt(largeBytes)
			if err != nil {
				return err
			}
			largeMs = append(largeMs, ms)
		}
		// Bandwidth from the latency slope between payload sizes.
		bw := float64(largeBytes-smallBytes) / 1e6 / ((stats.Mean(largeMs) - stats.Mean(smallMs)) / 1000)
		// Overhead samples: 1 MB round-trips minus the transfer component.
		const probeBytes = 1_000_000
		for i := 0; i < runs; i++ {
			ms, err := rt(probeBytes)
			if err != nil {
				return err
			}
			overheadMs = append(overheadMs, ms-probeBytes/1e6/bw*1000)
		}
		return nil
	})
	if err != nil {
		return CommProfile{}, err
	}
	bw := float64(largeBytes-smallBytes) / 1e6 / ((stats.Mean(largeMs) - stats.Mean(smallMs)) / 1000)
	emg, err := stats.FitEMG(overheadMs)
	if err != nil {
		return CommProfile{}, fmt.Errorf("profile: fit overhead EMG: %w", err)
	}
	return CommProfile{NetMBps: bw, Overhead: emg}, nil
}
