package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// tinyModel exercises every serializable op kind.
func tinyModel(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("tiny", []int{2, 8, 8})
	stem := g.MustAdd(nn.NewConv2D("conv", 2, 4, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("bn", 4))
	g.MustAdd(nn.NewReLU("relu"))
	g.MustAdd(nn.NewMaxPool2D("mp", 2, 2, 0))
	g.MustAdd(nn.NewAvgPool2D("ap", 2, 2))
	short := g.MustAdd(nn.NewConv2D("short", 2, 4, 3, 4, 1), graph.InputID)
	g.MustAdd(nn.NewAdd("add"), 4, short)
	g.MustAdd(nn.NewGlobalAvgPool("gap"))
	g.MustAdd(nn.NewDense("fc", 4, 6))
	g.MustAdd(nn.NewSoftmax("sm"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = stem
	return g
}

func TestRoundtripWithWeights(t *testing.T) {
	g := tinyModel(t)
	g.Init(11)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	g2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.Name != g.Name || g2.Len() != g.Len() {
		t.Fatalf("structure mismatch: %s/%d vs %s/%d", g2.Name, g2.Len(), g.Name, g.Len())
	}
	x := filled(0.3, 2, 8, 8)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("loaded model must produce bitwise identical outputs")
	}
}

func TestRoundtripSpecOnly(t *testing.T) {
	g, err := models.VGG(11)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, g, false); err != nil {
		t.Fatal(err)
	}
	g2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	if g2.ParamCount() != g.ParamCount() {
		t.Fatalf("param counts differ: %d vs %d", g2.ParamCount(), g.ParamCount())
	}
	if g2.Initialized() {
		t.Fatal("spec-only load must not have weights")
	}
	s1, err := g.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := g2.OutShape()
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(s1, s2) {
		t.Fatal("shapes differ after roundtrip")
	}
}

func TestRoundtripRNN(t *testing.T) {
	g, err := models.RNNCustom(2, 6, 4, 9)
	if err != nil {
		t.Fatal(err)
	}
	g.Init(5)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	g2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	x := filled(0.2, 4, 6)
	want, _ := g.Forward(x)
	got, err := g2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("RNN roundtrip mismatch")
	}
}

func TestSaveUninitializedWithWeightsFails(t *testing.T) {
	g := tinyModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err == nil {
		t.Fatal("expected error for uninitialized weights")
	}
}

// TestSaveRefusesValidH: an operator with its height padding off exists only
// in a spatial part's graph; the format cannot say so, so saving one is an
// error, not a model that loads back padded.
func TestSaveRefusesValidH(t *testing.T) {
	conv := nn.NewConv2D("conv", 2, 4, 3, 1, 1)
	dw := nn.NewDepthwiseConv2D("dw", 2, 3, 1, 1)
	mp := nn.NewMaxPool2D("mp", 3, 1, 1)
	conv.ValidH, dw.ValidH, mp.ValidH = true, true, true
	for _, op := range []nn.Op{conv, dw, mp} {
		g := graph.New("valid-h", []int{2, 8, 8})
		g.MustAdd(op)
		var buf bytes.Buffer
		if err := Save(&buf, g, false); err == nil {
			t.Errorf("%s with ValidH saved", op.Kind())
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("GLSM\xff\xff\xff\xff"),
		[]byte("GLSM\x02\x00\x00\x00{}"),
	}
	for i, c := range cases {
		if _, err := load(bytes.NewReader(c), int64(len(c))); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestLoadTruncatedWeights(t *testing.T) {
	g := tinyModel(t)
	g.Init(3)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	if _, err := load(bytes.NewReader(trunc), int64(len(trunc))); err == nil {
		t.Fatal("expected truncation error")
	}
}

func TestFileRoundtrip(t *testing.T) {
	g := tinyModel(t)
	g.Init(7)
	path := filepath.Join(t.TempDir(), "tiny.glsm")
	if err := SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	g2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if g2.Len() != g.Len() {
		t.Fatal("file roundtrip structure mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "missing.glsm")); err == nil {
		t.Fatal("expected missing-file error")
	}
}

func TestRoundtripDepthwiseAndConcat(t *testing.T) {
	g := graph.New("dwcat", []int{4, 8, 8})
	in := g.MustAdd(nn.NewDepthwiseConv2D("dw", 4, 3, 1, 1))
	b1 := g.MustAdd(nn.NewConv2D("b1", 4, 2, 1, 1, 0), in)
	b2 := g.MustAdd(nn.NewConv2D("b2", 4, 3, 1, 1, 0), in)
	g.MustAdd(nn.NewConcat("cat"), b1, b2)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Init(13)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	g2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	x := filled(0.4, 4, 8, 8)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("depthwise/concat roundtrip mismatch")
	}
	// A sliced depthwise op (Lo/Hi set) must survive serialization too.
	sliced, err := nn.NewDepthwiseConv2D("dws", 6, 3, 1, 1).SliceChannels(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	gs := graph.New("s", []int{6, 8, 8})
	gs.MustAdd(sliced)
	gs.Init(14)
	buf.Reset()
	if err := Save(&buf, gs, true); err != nil {
		t.Fatal(err)
	}
	gs2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	xs := filled(0.2, 6, 8, 8)
	wantS, _ := gs.Forward(xs)
	gotS, err := gs2.Forward(xs)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(wantS, gotS) {
		t.Fatal("sliced depthwise roundtrip mismatch")
	}
}

// fusedModel returns a small graph and its fused form, which has all three
// fused patterns: Conv+BN+ReLU, Conv+ReLU and Dense+ReLU.
func fusedModel(tb testing.TB) (unfused, fused *graph.Graph) {
	tb.Helper()
	g := graph.New("fused", []int{3, 6, 6})
	g.MustAdd(nn.NewConv2D("c1", 3, 4, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("b1", 4))
	g.MustAdd(nn.NewReLU("r1"))
	g.MustAdd(nn.NewConv2D("c2", 4, 4, 3, 1, 1))
	g.MustAdd(nn.NewReLU("r2"))
	g.MustAdd(nn.NewFlatten("fl"))
	g.MustAdd(nn.NewDense("fc", 4*6*6, 5))
	g.MustAdd(nn.NewReLU("r3"))
	g.Init(13)
	fg, eliminated, err := graph.Fuse(g)
	if err != nil {
		tb.Fatal(err)
	}
	if eliminated != 4 {
		tb.Fatalf("eliminated %d nodes, want 4", eliminated)
	}
	return g, fg
}

// TestRoundtripFusedGraph serializes a fused graph with weights and checks
// the loaded copy (including the folded scale/shift epilogue tensors)
// forwards bitwise identically to the unfused original.
func TestRoundtripFusedGraph(t *testing.T) {
	g, fg := fusedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, fg, true); err != nil {
		t.Fatal(err)
	}
	fg2, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	x := filled(0.25, 3, 6, 6)
	want, err := g.Forward(x) // the unfused original is the reference
	if err != nil {
		t.Fatal(err)
	}
	got, err := fg2.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("loaded fused model must match the unfused original bitwise")
	}
}

// TestFusedWireFormatPinned pins the bytes of a saved fused graph: the kind
// strings "FusedConv2D" and "FusedDense", their attrs, the weight order
// W, B, Scale, Shift, and the order in which Init draws a fused layer's
// weights (a structure-only load, initialized and saved again). The hashes
// were recorded when the fused layers were wrapper types; files written
// since must stay readable by, and identical to, what those wrote.
func TestFusedWireFormatPinned(t *testing.T) {
	_, fg := fusedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, fg, true); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "60e8df08331d192fc9728041459088226efc18a2174099883dffb93fc3d6dfc8"; got != want {
		t.Errorf("fused graph with weights: sha256 %s, want %s", got, want)
	}
	buf.Reset()
	if err := Save(&buf, fg, false); err != nil {
		t.Fatal(err)
	}
	spec, err := load(&buf, int64(buf.Len()))
	if err != nil {
		t.Fatal(err)
	}
	spec.Init(5)
	buf.Reset()
	if err := Save(&buf, spec, true); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "ab5ae03111b6008341eb361124a277ce5c5a80b1945df41f63cbe0a6b7e860ee"; got != want {
		t.Errorf("fused structure initialized with seed 5: sha256 %s, want %s", got, want)
	}
}

// rawModel frames a JSON header and a raw weight block as a model file.
func rawModel(hdr string, weights ...uint32) []byte {
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	for _, w := range weights {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// forgedDense is a 166-byte model file: one 16384×16384 Dense layer, its
// weight count, and the rank and dimensions of a 16384×16384 weight tensor,
// but no data. Every dimension is within the op's parameters; only the
// input's length shows the tensor is not there.
func forgedDense() []byte {
	const n = 16384
	hdr := fmt.Sprintf(`{"version":1,"name":"x","inShape":[%d],"hasWeights":true,"nodes":[`+
		`{"kind":"Dense","name":"d","inputs":[-1],"attrs":{"in":%d,"out":%d}}]}`, n, n, n)
	b := append(rawModel(hdr, 2), 2)
	b = binary.LittleEndian.AppendUint32(b, n)
	return binary.LittleEndian.AppendUint32(b, n)
}

// allocated is the number of bytes f allocates.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// forgedFusedConv is a structure-only model file: one 3→outC 1×1 conv with
// a folded BatchNorm, a header and nothing else (197 bytes at 2^22).
func forgedFusedConv(outC int) []byte {
	return rawModel(fmt.Sprintf(`{"version":1,"name":"x","inShape":[3,4,4],"hasWeights":false,"nodes":[`+
		`{"kind":"FusedConv2D","name":"c","inputs":[-1],"attrs":{"bn":1,"inC":3,"kernel":1,"outC":%d,"pad":0,"stride":1}}]}`, outC))
}

// TestLoadRejectsForgedSizes feeds Load headers and weight blocks whose
// sizes would panic or allocate without bound if trusted: a fused conv's
// channel count, a weight tensor's dimensions and count, and a tensor the
// op has room for but the input does not hold. Each is refused having
// allocated a few MiB at most. A structure-only file declaring a 2^22-channel
// fused conv is a valid model and loads, having allocated as little: a load
// allocates nothing the input does not hold, and decoding the fused conv
// once allocated its folded affine, 33.6 MB here and 2 GiB at maxDim.
func TestLoadRejectsForgedSizes(t *testing.T) {
	const conv = `{"version":1,"name":"x","inShape":[3,4,4],"hasWeights":true,"nodes":[` +
		`{"kind":"Conv2D","name":"c","inputs":[-1],"attrs":{"inC":3,"kernel":1,"outC":2,"pad":0,"stride":1}}]}`
	// rank3 is that model with a first weight tensor of rank 3 and these
	// dimensions, and no data.
	rank3 := func(dims ...uint32) []byte {
		b := rawModel(conv, 2)
		b = append(b, 3)
		for _, d := range dims {
			b = binary.LittleEndian.AppendUint32(b, d)
		}
		return b
	}
	for name, data := range map[string][]byte{
		"fused conv with negative channels": forgedFusedConv(-3),
		"fused conv with zero channels":     forgedFusedConv(0),
		"fused conv with 2^40 channels":     forgedFusedConv(1 << 40),
		"weight dims overflowing":           rank3(1<<28, 1<<28, 3),
		"weight larger than the op":         rank3(2, 3, 2),
		"four billion weight tensors":       rawModel(conv, 0xffffffff),
		"16384² dense weight, no data":      forgedDense(),
	} {
		var err error
		n := allocated(func() { _, err = load(bytes.NewReader(data), int64(len(data))) })
		if err == nil {
			t.Errorf("%s: loaded", name)
		}
		if maxBytes := uint64(4 << 20); n > maxBytes {
			t.Errorf("%s: refused having allocated %d B, want at most %d", name, n, maxBytes)
		}
	}
	data := forgedFusedConv(1 << 22)
	var g *graph.Graph
	var err error
	n := allocated(func() { g, err = load(bytes.NewReader(data), int64(len(data))) })
	if err != nil {
		t.Errorf("%d-byte structure-only fused conv: %v", len(data), err)
	} else if got := g.ParamCount(); got != 6<<22 {
		t.Errorf("%d-byte structure-only fused conv: loaded with %d parameters, want %d", len(data), got, 6<<22)
	}
	if maxBytes := uint64(4 << 20); n > maxBytes {
		t.Errorf("%d-byte structure-only fused conv: loaded having allocated %d B, want at most %d", len(data), n, maxBytes)
	}
}

// TestLoadAllocatesTheWeightsOnce: loading a model with weights allocates
// its parameters' bytes once, plus a fixed slack for the read buffer, the
// header and the graph. A loader that reads each tensor into a byte buffer
// and converts it allocates the weights twice.
func TestLoadAllocatesTheWeightsOnce(t *testing.T) {
	g, err := models.ByName("mobilenet-mini")
	if err != nil {
		t.Fatal(err)
	}
	g.Init(1)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	var loaded *graph.Graph
	n := allocated(func() { loaded, err = load(bytes.NewReader(buf.Bytes()), int64(buf.Len())) })
	if err != nil {
		t.Fatal(err)
	}
	if !loaded.Initialized() {
		t.Fatal("loaded model has no weights")
	}
	params := uint64(4 * g.ParamCount())
	t.Logf("%d parameter bytes, %d B allocated", params, n)
	if slack := uint64(256 << 10); n > params+slack {
		t.Errorf("load allocated %d B for %d B of parameters, want at most %d B more", n, params, slack)
	}
}

// TestSwap32IsTheOtherByteOrder: the swap a big-endian host applies to the
// file's bytes turns a little-endian word into the big-endian one, and back.
func TestSwap32IsTheOtherByteOrder(t *testing.T) {
	words := []uint32{0, 1, 0x01020304, math.Float32bits(-1.5), math.Float32bits(float32(math.NaN())), 0xffffffff}
	var le, be []byte
	for _, w := range words {
		le = binary.LittleEndian.AppendUint32(le, w)
		be = binary.BigEndian.AppendUint32(be, w)
	}
	got := append([]byte(nil), le...)
	swap32(got)
	if !bytes.Equal(got, be) {
		t.Fatalf("swap32(%x) = %x, want %x", le, got, be)
	}
	swap32(got)
	if !bytes.Equal(got, le) {
		t.Fatalf("swap32 twice = %x, want %x", got, le)
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
