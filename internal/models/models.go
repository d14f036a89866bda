// Package models is the benchmark-model zoo: the VGG, ResNet, Wide ResNet,
// and multi-layer LSTM families the Gillis paper evaluates (§V-A). The
// constructors reproduce the published architectures so that parameter
// counts — and therefore the serverless out-of-memory frontiers the paper
// observes — land in the right places.
package models

import (
	"fmt"

	"gillis/internal/graph"
	"gillis/internal/nn"
)

// ImageInput is the CHW input shape of all CNN models.
var ImageInput = []int{3, 224, 224}

const numClasses = 1000

// RNN model defaults matching §V-A: 2K hidden LSTM cells, language-model
// style sequence length and vocabulary.
const (
	RNNHidden = 2048
	RNNSteps  = 35
	RNNVocab  = 10000
)

// VGG builds a VGG model. variant must be 11, 16, or 19.
func VGG(variant int) (*graph.Graph, error) {
	cfgs := map[int][]int{
		// -1 denotes a 2x2/2 max-pooling layer.
		11: {64, -1, 128, -1, 256, 256, -1, 512, 512, -1, 512, 512, -1},
		16: {64, 64, -1, 128, 128, -1, 256, 256, 256, -1, 512, 512, 512, -1, 512, 512, 512, -1},
		19: {64, 64, -1, 128, 128, -1, 256, 256, 256, 256, -1, 512, 512, 512, 512, -1, 512, 512, 512, 512, -1},
	}
	cfg, ok := cfgs[variant]
	if !ok {
		return nil, fmt.Errorf("models: unknown VGG variant %d", variant)
	}
	g := graph.New(fmt.Sprintf("vgg%d", variant), ImageInput)
	inC := 3
	convI, poolI := 0, 0
	for _, c := range cfg {
		if c == -1 {
			poolI++
			g.MustAdd(nn.NewMaxPool2D(fmt.Sprintf("pool%d", poolI), 2, 2, 0))
			continue
		}
		convI++
		g.MustAdd(nn.NewConv2D(fmt.Sprintf("conv%d", convI), inC, c, 3, 1, 1))
		g.MustAdd(nn.NewReLU(fmt.Sprintf("relu%d", convI)))
		inC = c
	}
	g.MustAdd(nn.NewFlatten("flatten"))
	g.MustAdd(nn.NewDense("fc1", 512*7*7, 4096))
	g.MustAdd(nn.NewReLU("fc1_relu"))
	g.MustAdd(nn.NewDense("fc2", 4096, 4096))
	g.MustAdd(nn.NewReLU("fc2_relu"))
	g.MustAdd(nn.NewDense("fc3", 4096, numClasses))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}

// ResNet builds a classic residual network. depth must be 34, 50, or 101.
func ResNet(depth int) (*graph.Graph, error) { return WideResNet(depth, 1) }

// WideResNet builds a ResNet widened by multiplying every convolution's
// channel count by k (WRN-depth-k in the paper's notation; k = 1 recovers
// the classic ResNet). depth must be 34, 50, or 101.
func WideResNet(depth, k int) (*graph.Graph, error) {
	if k < 1 {
		return nil, fmt.Errorf("models: widening scalar %d must be >= 1", k)
	}
	type stageCfg struct {
		blocks     []int
		bottleneck bool
	}
	cfgs := map[int]stageCfg{
		34:  {blocks: []int{3, 4, 6, 3}, bottleneck: false},
		50:  {blocks: []int{3, 4, 6, 3}, bottleneck: true},
		101: {blocks: []int{3, 4, 23, 3}, bottleneck: true},
	}
	cfg, ok := cfgs[depth]
	if !ok {
		return nil, fmt.Errorf("models: unknown ResNet depth %d", depth)
	}
	name := fmt.Sprintf("resnet%d", depth)
	if k > 1 {
		name = fmt.Sprintf("wrn%d-%d", depth, k)
	}
	g := graph.New(name, ImageInput)

	stemC := 64 * k
	g.MustAdd(nn.NewConv2D("stem_conv", 3, stemC, 7, 2, 3))
	g.MustAdd(nn.NewBatchNorm("stem_bn", stemC))
	g.MustAdd(nn.NewReLU("stem_relu"))
	last := g.MustAdd(nn.NewMaxPool2D("stem_pool", 3, 2, 1))

	inC := stemC
	baseC := []int{64, 128, 256, 512}
	for stage, nBlocks := range cfg.blocks {
		c := baseC[stage] * k
		for b := 0; b < nBlocks; b++ {
			stride := 1
			if stage > 0 && b == 0 {
				stride = 2
			}
			prefix := fmt.Sprintf("s%db%d", stage+1, b+1)
			if cfg.bottleneck {
				last = addBottleneckBlock(g, prefix, last, inC, c, stride)
				inC = c * 4
			} else {
				last = addBasicBlock(g, prefix, last, inC, c, stride)
				inC = c
			}
		}
	}
	g.MustAdd(nn.NewGlobalAvgPool("gap"), last)
	g.MustAdd(nn.NewDense("fc", inC, numClasses))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}

// addBasicBlock appends a ResNet-34-style block (two 3x3 convolutions) and
// returns the output node ID.
func addBasicBlock(g *graph.Graph, prefix string, in, inC, outC, stride int) int {
	c1 := g.MustAdd(nn.NewConv2D(prefix+"_conv1", inC, outC, 3, stride, 1), in)
	b1 := g.MustAdd(nn.NewBatchNorm(prefix+"_bn1", outC), c1)
	r1 := g.MustAdd(nn.NewReLU(prefix+"_relu1"), b1)
	c2 := g.MustAdd(nn.NewConv2D(prefix+"_conv2", outC, outC, 3, 1, 1), r1)
	b2 := g.MustAdd(nn.NewBatchNorm(prefix+"_bn2", outC), c2)

	short := in
	if stride != 1 || inC != outC {
		sc := g.MustAdd(nn.NewConv2D(prefix+"_down", inC, outC, 1, stride, 0), in)
		short = g.MustAdd(nn.NewBatchNorm(prefix+"_down_bn", outC), sc)
	}
	sum := g.MustAdd(nn.NewAdd(prefix+"_add"), b2, short)
	return g.MustAdd(nn.NewReLU(prefix+"_relu2"), sum)
}

// addBottleneckBlock appends a ResNet-50-style block (1x1 reduce, 3x3,
// 1x1 expand ×4) and returns the output node ID.
func addBottleneckBlock(g *graph.Graph, prefix string, in, inC, c, stride int) int {
	outC := c * 4
	c1 := g.MustAdd(nn.NewConv2D(prefix+"_conv1", inC, c, 1, 1, 0), in)
	b1 := g.MustAdd(nn.NewBatchNorm(prefix+"_bn1", c), c1)
	r1 := g.MustAdd(nn.NewReLU(prefix+"_relu1"), b1)
	c2 := g.MustAdd(nn.NewConv2D(prefix+"_conv2", c, c, 3, stride, 1), r1)
	b2 := g.MustAdd(nn.NewBatchNorm(prefix+"_bn2", c), c2)
	r2 := g.MustAdd(nn.NewReLU(prefix+"_relu2"), b2)
	c3 := g.MustAdd(nn.NewConv2D(prefix+"_conv3", c, outC, 1, 1, 0), r2)
	b3 := g.MustAdd(nn.NewBatchNorm(prefix+"_bn3", outC), c3)

	short := in
	if stride != 1 || inC != outC {
		sc := g.MustAdd(nn.NewConv2D(prefix+"_down", inC, outC, 1, stride, 0), in)
		short = g.MustAdd(nn.NewBatchNorm(prefix+"_down_bn", outC), sc)
	}
	sum := g.MustAdd(nn.NewAdd(prefix+"_add"), b3, short)
	return g.MustAdd(nn.NewReLU(prefix+"_relu3"), sum)
}

// RNN builds an n-layer LSTM language model with 2K hidden size (RNN-n in
// the paper's notation): n stacked LSTM layers followed by a vocabulary
// projection on the final step.
func RNN(layers int) (*graph.Graph, error) {
	return RNNCustom(layers, RNNHidden, RNNSteps, RNNVocab)
}

// RNNCustom builds an LSTM stack with explicit dimensions, for tests and
// microbenchmarks.
func RNNCustom(layers, hidden, steps, vocab int) (*graph.Graph, error) {
	if layers < 1 {
		return nil, fmt.Errorf("models: RNN needs at least 1 layer, got %d", layers)
	}
	g := graph.New(fmt.Sprintf("rnn%d", layers), []int{steps, hidden})
	for i := 1; i <= layers; i++ {
		g.MustAdd(nn.NewLSTM(fmt.Sprintf("lstm%d", i), hidden, hidden))
	}
	g.MustAdd(nn.NewTakeLast("last"))
	g.MustAdd(nn.NewDense("proj", hidden, vocab))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}

// ByName constructs a benchmark model from its paper notation, e.g.
// "vgg16", "resnet50", "wrn34-5", "rnn6".
func ByName(name string) (*graph.Graph, error) {
	var a, b int
	switch {
	case scan(name, "vgg%d", &a):
		return VGG(a)
	case scan(name, "resnet%d", &a):
		return ResNet(a)
	case scan(name, "wrn%d-%d", &a, &b):
		return WideResNet(a, b)
	case scan(name, "rnn-tiny%d", &a):
		return RNNTiny(a)
	case scan(name, "rnn%d", &a):
		return RNN(a)
	case name == "inception-mini":
		return MiniInception()
	case name == "mobilenet-mini":
		return MobileNetMini()
	case scan(name, "mobilenet-mini-w%d", &a):
		return MobileNetMiniW(a)
	}
	return nil, fmt.Errorf("models: unknown model %q", name)
}

func scan(s, format string, args ...any) bool {
	n, err := fmt.Sscanf(s, format, args...)
	return err == nil && n == len(args)
}

// MiniInception builds a compact GoogLeNet-style network of Inception
// branch modules — the second branch-module family the paper's Fig. 5
// merging handles (1x1 / 1x1→3x3 / 1x1→5x5 / pool→1x1 branches joined by a
// channel concatenation).
func MiniInception() (*graph.Graph, error) {
	g := graph.New("inception-mini", ImageInput)
	g.MustAdd(nn.NewConv2D("stem_conv", 3, 64, 7, 2, 3))
	g.MustAdd(nn.NewReLU("stem_relu"))
	last := g.MustAdd(nn.NewMaxPool2D("stem_pool", 3, 2, 1))

	last = addInceptionModule(g, "i3a", last, 64, 32, 48, 64, 8, 16, 16)   // out 128
	last = addInceptionModule(g, "i3b", last, 128, 64, 64, 96, 16, 32, 32) // out 224
	last = g.MustAdd(nn.NewMaxPool2D("pool3", 3, 2, 1), last)
	last = addInceptionModule(g, "i4a", last, 224, 96, 48, 104, 8, 24, 32) // out 256
	g.MustAdd(nn.NewGlobalAvgPool("gap"), last)
	g.MustAdd(nn.NewDense("fc", 256, numClasses))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}

// addInceptionModule appends a four-branch Inception module and returns the
// concatenated output node ID.
func addInceptionModule(g *graph.Graph, prefix string, in, inC, c1, c3r, c3, c5r, c5, cp int) int {
	b1 := g.MustAdd(nn.NewConv2D(prefix+"_b1", inC, c1, 1, 1, 0), in)
	b1 = g.MustAdd(nn.NewReLU(prefix+"_b1_relu"), b1)

	b3 := g.MustAdd(nn.NewConv2D(prefix+"_b3r", inC, c3r, 1, 1, 0), in)
	b3 = g.MustAdd(nn.NewReLU(prefix+"_b3r_relu"), b3)
	b3 = g.MustAdd(nn.NewConv2D(prefix+"_b3", c3r, c3, 3, 1, 1), b3)
	b3 = g.MustAdd(nn.NewReLU(prefix+"_b3_relu"), b3)

	b5 := g.MustAdd(nn.NewConv2D(prefix+"_b5r", inC, c5r, 1, 1, 0), in)
	b5 = g.MustAdd(nn.NewReLU(prefix+"_b5r_relu"), b5)
	b5 = g.MustAdd(nn.NewConv2D(prefix+"_b5", c5r, c5, 5, 1, 2), b5)
	b5 = g.MustAdd(nn.NewReLU(prefix+"_b5_relu"), b5)

	bp := g.MustAdd(nn.NewMaxPool2D(prefix+"_pool", 3, 1, 1), in)
	bp = g.MustAdd(nn.NewConv2D(prefix+"_bp", inC, cp, 1, 1, 0), bp)
	bp = g.MustAdd(nn.NewReLU(prefix+"_bp_relu"), bp)

	return g.MustAdd(nn.NewConcat(prefix+"_concat"), b1, b3, b5, bp)
}

// MobileNetMini builds a compact MobileNet-style network of depthwise
// separable convolutions (depthwise 3x3 + pointwise 1x1, each followed by
// BatchNorm and ReLU) — a model family whose depthwise layers are both
// spatially local and channel-sliceable.
func MobileNetMini() (*graph.Graph, error) {
	return mobileNetMini("mobilenet-mini", 1)
}

// MobileNetMiniW builds MobileNetMini with every channel count multiplied
// by w ("mobilenet-mini-wN"): the serving mesh's catalog fillers, giving
// the same architecture at quadratically growing parameter sizes.
func MobileNetMiniW(w int) (*graph.Graph, error) {
	if w < 1 {
		return nil, fmt.Errorf("models: width multiplier %d must be >= 1", w)
	}
	return mobileNetMini(fmt.Sprintf("mobilenet-mini-w%d", w), w)
}

func mobileNetMini(name string, w int) (*graph.Graph, error) {
	g := graph.New(name, ImageInput)
	g.MustAdd(nn.NewConv2D("stem_conv", 3, 32*w, 3, 2, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 32*w))
	g.MustAdd(nn.NewReLU("stem_relu"))

	inC := 32 * w
	for i, cfg := range []struct{ outC, stride int }{
		{64, 1}, {128, 2}, {128, 1}, {256, 2}, {256, 1}, {512, 2},
	} {
		prefix := fmt.Sprintf("ds%d", i+1)
		outC := cfg.outC * w
		g.MustAdd(nn.NewDepthwiseConv2D(prefix+"_dw", inC, 3, cfg.stride, 1))
		g.MustAdd(nn.NewBatchNorm(prefix+"_dw_bn", inC))
		g.MustAdd(nn.NewReLU(prefix + "_dw_relu"))
		g.MustAdd(nn.NewConv2D(prefix+"_pw", inC, outC, 1, 1, 0))
		g.MustAdd(nn.NewBatchNorm(prefix+"_pw_bn", outC))
		g.MustAdd(nn.NewReLU(prefix + "_pw_relu"))
		inC = outC
	}
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", inC, numClasses))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}

// DemoCNN builds the small CNN gillis-server serves when it is given no
// model file ("demo-cnn"): two 3x3 convolutions on a 3x32x32 input, one
// pooling, a 10-way dense head.
func DemoCNN() *graph.Graph {
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

// RNN-tiny dimensions: small enough that several fit one serving
// instance's memory budget together, which is what a catalog mix needs.
const (
	rnnTinyHidden = 320
	rnnTinySteps  = 16
	rnnTinyVocab  = 4000
)

// RNNTiny builds a small n-layer LSTM stack ("rnn-tinyN"): the RNN-family
// catalog fillers, growing linearly in parameter size with the layer
// count.
func RNNTiny(layers int) (*graph.Graph, error) {
	if layers < 1 {
		return nil, fmt.Errorf("models: RNN needs at least 1 layer, got %d", layers)
	}
	g := graph.New(fmt.Sprintf("rnn-tiny%d", layers), []int{rnnTinySteps, rnnTinyHidden})
	for i := 1; i <= layers; i++ {
		g.MustAdd(nn.NewLSTM(fmt.Sprintf("lstm%d", i), rnnTinyHidden, rnnTinyHidden))
	}
	g.MustAdd(nn.NewTakeLast("last"))
	g.MustAdd(nn.NewDense("proj", rnnTinyHidden, rnnTinyVocab))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g, nil
}
