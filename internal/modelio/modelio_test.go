package modelio

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
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
	g2, err := parse(buf.Bytes())
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
	g2, err := parse(buf.Bytes())
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
	g2, err := parse(buf.Bytes())
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

// TestLoadRejectsGarbage: each malformed file is refused by the check that
// is there for it, which its error names. The version-2 conv file the
// weight cases corrupt loads as it is.
func TestLoadRejectsGarbage(t *testing.T) {
	valid := convFile()
	if _, err := parse(valid); err != nil {
		t.Fatalf("the uncorrupted file: %v", err)
	}
	nonzeroPad := bytes.Clone(valid)
	at := len(rawModel(convHeader, 2)) + 1 + 4*4 // the first tensor's padding
	if padding(at) == 0 {
		t.Fatalf("the first tensor's data is at %d, with no padding before it", at)
	}
	nonzeroPad[at] = 1
	misaligned := make([]byte, len(valid)+1)[1:]
	copy(misaligned, valid)
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "read magic"},
		{"other magic", []byte("XXXX"), "bad magic"},
		{"no header length", []byte("GLSM\x01\x00"), "read header length"},
		{"4 GiB header", []byte("GLSM\xff\xff\xff\xff"), "header length 4294967295 exceeds"},
		{"header not JSON", rawModel("{"), "parse header"},
		{"no version", rawModel("{}"), "unsupported version 0"},
		{"version 1", rawModel(strings.Replace(convHeader, `"version":2`, `"version":1`, 1)), "unsupported version 1 (this build reads version 2): re-export the model with `gillis export`"},
		{"unknown kind", rawModel(`{"version":2,"name":"x","inShape":[3],"nodes":[{"kind":"Gelu","name":"g","inputs":[-1]}]}`), `unknown op kind "Gelu"`},
		{"no weight count", rawModel(convHeader), "node \"c\" weights: unexpected EOF"},
		{"nonzero padding", nonzeroPad, "weight 0: nonzero padding"},
		{"misaligned buffer", misaligned, "is not 4-byte aligned"},
	} {
		if _, err := parse(c.data); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
	}
}

// TestLoadTruncatedWeights: a file cut inside its last tensor is refused by
// the check that the tensor fits in what is left of the input.
func TestLoadTruncatedWeights(t *testing.T) {
	g := tinyModel(t)
	g.Init(3)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		t.Fatal(err)
	}
	if _, err := parse(buf.Bytes()); err != nil {
		t.Fatalf("the whole file: %v", err)
	}
	trunc := buf.Bytes()[:buf.Len()-10]
	_, err := parse(trunc)
	if want := `node "fc" weights: weight 1: 6 floats, more than the input has left`; err == nil || !strings.Contains(err.Error(), want) || !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("error %v, want io.ErrUnexpectedEOF saying %q", err, want)
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
	if _, err := LoadFile(t.TempDir()); err == nil {
		t.Fatal("expected an error for a directory")
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
	g2, err := parse(buf.Bytes())
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
	gs2, err := parse(buf.Bytes())
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
	fg2, err := parse(buf.Bytes())
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
// were first recorded when the fused layers were wrapper types, and moved
// only with the format's version: version 2's bytes are version 1's with
// "version":2 and the zero padding before each tensor's data.
func TestFusedWireFormatPinned(t *testing.T) {
	_, fg := fusedModel(t)
	var buf bytes.Buffer
	if err := Save(&buf, fg, true); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "148d01cc1418f9cb10a1a47803737c3353e9420704f2bec413508f85d55b3337"; got != want {
		t.Errorf("fused graph with weights: sha256 %s, want %s", got, want)
	}
	buf.Reset()
	if err := Save(&buf, fg, false); err != nil {
		t.Fatal(err)
	}
	spec, err := parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	spec.Init(5)
	buf.Reset()
	if err := Save(&buf, spec, true); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%x", sha256.Sum256(buf.Bytes())), "1652fde19e7e2a660a0296cfd34675d98f643f658bdcd95aa2b7cf14849526f2"; got != want {
		t.Errorf("fused structure initialized with seed 5: sha256 %s, want %s", got, want)
	}
}

// rawModel frames a JSON header and raw little-endian words as a model
// file.
func rawModel(hdr string, words ...uint32) []byte {
	b := []byte(magic)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(hdr)))
	b = append(b, hdr...)
	for _, w := range words {
		b = binary.LittleEndian.AppendUint32(b, w)
	}
	return b
}

// appendTensor appends a weight tensor as Save writes one: its rank, its
// dimensions, the zero padding to the next multiple of align, and data.
func appendTensor(b []byte, data []float32, dims ...uint32) []byte {
	b = append(b, forgedTensor(dims...)...)
	b = append(b, make([]byte, padding(len(b)))...)
	for _, v := range data {
		b = binary.LittleEndian.AppendUint32(b, math.Float32bits(v))
	}
	return b
}

// convHeader is a version-2 header: one 3→2 1×1 conv, with weights.
const convHeader = `{"version":2,"name":"x","inShape":[3,4,4],"hasWeights":true,"nodes":[` +
	`{"kind":"Conv2D","name":"c","inputs":[-1],"attrs":{"inC":3,"kernel":1,"outC":2,"pad":0,"stride":1}}]}`

// convFile is a valid model file with convHeader's structure, framed by
// hand.
func convFile() []byte {
	b := appendTensor(rawModel(convHeader, 2), []float32{1, 2, 3, 4, 5, 6}, 2, 3, 1, 1)
	return appendTensor(b, []float32{-1, 1}, 2)
}

// forgedDense is a 166-byte model file: one 16384×16384 Dense layer, its
// weight count, and the rank and dimensions of a 16384×16384 weight tensor,
// but no data. Every dimension is within the op's parameters; only the
// input's length shows the tensor is not there.
func forgedDense() []byte {
	return append(rawModel(denseHeader, 2), forgedTensor(16384, 16384)...)
}

// denseHeader is a version-2 header: one 16384×16384 Dense layer, with
// weights.
const denseHeader = `{"version":2,"name":"x","inShape":[16384],"hasWeights":true,"nodes":[` +
	`{"kind":"Dense","name":"d","inputs":[-1],"attrs":{"in":16384,"out":16384}}]}`

// forgedTensor is a weight tensor's rank and dimensions, and no data.
func forgedTensor(dims ...uint32) []byte {
	b := []byte{uint8(len(dims))}
	for _, d := range dims {
		b = binary.LittleEndian.AppendUint32(b, d)
	}
	return b
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
// a folded BatchNorm, a header and nothing else (197 bytes at 2^22). outC is
// an int64 so that a count no int32 holds can be forged on a 32-bit build.
func forgedFusedConv(outC int64) []byte {
	return rawModel(fmt.Sprintf(`{"version":2,"name":"x","inShape":[3,4,4],"hasWeights":false,"nodes":[`+
		`{"kind":"FusedConv2D","name":"c","inputs":[-1],"attrs":{"bn":1,"inC":3,"kernel":1,"outC":%d,"pad":0,"stride":1}}]}`, outC))
}

// TestLoadRejectsForgedSizes feeds parse headers and weight blocks whose
// sizes would panic or allocate without bound if trusted: a fused conv's
// channel count, a weight tensor's rank, dimensions and count, and a tensor
// the op has room for but the input does not hold. Each is refused by the
// check for it, which its error names, having allocated a few MiB at most. A
// structure-only file declaring a 2^22-channel fused conv is a valid model
// and loads, having allocated as little: a load allocates nothing the input
// does not hold, and decoding the fused conv once allocated its folded
// affine, 33.6 MB here and 2 GiB at maxDim.
func TestLoadRejectsForgedSizes(t *testing.T) {
	// conv is convHeader's model with its weight count and a first tensor
	// of these dimensions, and no data.
	conv := func(dims ...uint32) []byte { return append(rawModel(convHeader, 2), forgedTensor(dims...)...) }
	// A 2^40-channel count is refused by the channel check where an int
	// holds it, and by the header's decoding into int attributes where it
	// does not; either way before anything is allocated for it.
	huge := "bad output channels 1099511627776"
	if strconv.IntSize == 32 {
		huge = "cannot unmarshal number 1099511627776"
	}
	for _, c := range []struct {
		name string
		data []byte
		want string
	}{
		{"fused conv with negative channels", forgedFusedConv(-3), "bad output channels -3"},
		{"fused conv with zero channels", forgedFusedConv(0), "bad output channels 0"},
		{"fused conv with 2^40 channels", forgedFusedConv(1 << 40), huge},
		{"rank 0", conv(), "bad tensor rank 0"},
		{"rank 9", conv(1, 1, 1, 1, 1, 1, 1, 1, 1), "bad tensor rank 9"},
		{"dimension over maxDim", append(rawModel(denseHeader, 2), forgedTensor(maxDim+1)...), "weight 0: bad dimension 268435457"},
		{"weight dims overflowing", conv(1<<28, 1<<28, 3), "weight 0: bad dimension 268435456"},
		{"weight larger than the op", conv(2, 3, 2), "weight 0: bad dimension 2"},
		{"four billion weight tensors", rawModel(convHeader, 0xffffffff), "4294967295 weight tensors, want 2"},
		{"16384² dense weight, no data", forgedDense(), "weight 0: 268435456 floats, more than the input has left"},
	} {
		var err error
		n := allocated(func() { _, err = parse(c.data) })
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want one saying %q", c.name, err, c.want)
		}
		if maxBytes := uint64(4 << 20); n > maxBytes {
			t.Errorf("%s: refused having allocated %d B, want at most %d", c.name, n, maxBytes)
		}
	}
	data := forgedFusedConv(1 << 22)
	var g *graph.Graph
	var err error
	n := allocated(func() { g, err = parse(data) })
	if err != nil {
		t.Errorf("%d-byte structure-only fused conv: %v", len(data), err)
	} else if got := g.ParamCount(); got != 6<<22 {
		t.Errorf("%d-byte structure-only fused conv: loaded with %d parameters, want %d", len(data), got, 6<<22)
	}
	if maxBytes := uint64(4 << 20); n > maxBytes {
		t.Errorf("%d-byte structure-only fused conv: loaded having allocated %d B, want at most %d", len(data), n, maxBytes)
	}
}

// TestSaveFileReplacesAtomically: saving over a loaded model's file leaves
// the loaded graph's weights as they were. SaveFile renames a new file over
// the path; truncating and rewriting the file in place would change the
// pages a mapped load aliases, or pull them away (SIGBUS).
func TestSaveFileReplacesAtomically(t *testing.T) {
	g := tinyModel(t)
	g.Init(7)
	path := filepath.Join(t.TempDir(), "tiny.glsm")
	if err := SaveFile(path, g, true); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	other := tinyModel(t)
	other.Init(8)
	if err := SaveFile(path, other, true); err != nil {
		t.Fatal(err)
	}
	x := filled(0.3, 2, 8, 8)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("saving over the file changed the weights of the graph loaded from it")
	}
	if entries, err := os.ReadDir(filepath.Dir(path)); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %v (%v), want only the model file", entries, err)
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
