// Package modelio serializes model graphs to a compact self-contained
// binary format ("ONNX-lite"): a JSON structure header followed by raw
// little-endian fp32 weight blocks. It fills the role ONNX plays in the
// original Gillis system — a platform-neutral interchange format that the
// deployment pipeline packages into serverless functions.
package modelio

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"unsafe"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

const (
	magic   = "GLSM"
	version = 1
	// maxDim bounds every dimension of a weight tensor in a model file.
	maxDim = 1 << 28
)

// header is the JSON model structure preceding the weight blocks.
type header struct {
	Version    int      `json:"version"`
	Name       string   `json:"name"`
	InShape    []int    `json:"inShape"`
	HasWeights bool     `json:"hasWeights"`
	Nodes      []opSpec `json:"nodes"`
}

// opSpec describes one operator instance.
type opSpec struct {
	Kind   string         `json:"kind"`
	Name   string         `json:"name"`
	Inputs []int          `json:"inputs"`
	Attrs  map[string]int `json:"attrs,omitempty"`
}

// Save writes the graph to w. If withWeights is true every operator must be
// initialized and its tensors are appended after the header.
func Save(w io.Writer, g *graph.Graph, withWeights bool) error {
	if withWeights && !g.Initialized() {
		return fmt.Errorf("modelio: graph %q has uninitialized weights", g.Name)
	}
	h := header{
		Version:    version,
		Name:       g.Name,
		InShape:    g.InShape(),
		HasWeights: withWeights,
		Nodes:      make([]opSpec, 0, g.Len()),
	}
	for _, n := range g.Nodes() {
		spec, err := encodeOp(n.Op)
		if err != nil {
			return err
		}
		spec.Inputs = append([]int(nil), n.Inputs...)
		h.Nodes = append(h.Nodes, spec)
	}
	hb, err := json.Marshal(h)
	if err != nil {
		return fmt.Errorf("modelio: marshal header: %w", err)
	}
	bw := bufio.NewWriterSize(w, 1<<20)
	if _, err := bw.WriteString(magic); err != nil {
		return err
	}
	if err := binary.Write(bw, binary.LittleEndian, uint32(len(hb))); err != nil {
		return err
	}
	if _, err := bw.Write(hb); err != nil {
		return err
	}
	if withWeights {
		for _, n := range g.Nodes() {
			if err := writeWeights(bw, n.Op); err != nil {
				return fmt.Errorf("modelio: node %q: %w", n.Op.Name(), err)
			}
		}
	}
	return bw.Flush()
}

// Load reads a graph written by Save. If r reports how many bytes it holds
// (a Len method, as *bytes.Reader and *bytes.Buffer have), nothing longer
// than what is left of it is allocated; LoadFile does the same with the
// file's size.
func Load(r io.Reader) (*graph.Graph, error) {
	left := int64(-1)
	if l, ok := r.(interface{ Len() int }); ok {
		left = int64(l.Len())
	}
	return load(r, left)
}

// load reads a model from r, which holds left more bytes, or an unknown
// number if left < 0.
func load(r io.Reader, left int64) (*graph.Graph, error) {
	// Weight blocks larger than the buffer are read past it, straight into
	// their tensors, so it only has to batch the small reads.
	in := &input{br: bufio.NewReaderSize(r, 64<<10), left: left}
	mg := make([]byte, len(magic))
	if err := in.read(mg); err != nil {
		return nil, fmt.Errorf("modelio: read magic: %w", err)
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("modelio: bad magic %q", mg)
	}
	hlen, err := in.u32()
	if err != nil {
		return nil, fmt.Errorf("modelio: read header length: %w", err)
	}
	const maxHeader = 64 << 20
	if hlen > maxHeader || !in.fits(int64(hlen)) {
		return nil, fmt.Errorf("modelio: header length %d exceeds the limit or the input", hlen)
	}
	hb := make([]byte, hlen)
	if err := in.read(hb); err != nil {
		return nil, fmt.Errorf("modelio: read header: %w", err)
	}
	var h header
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, fmt.Errorf("modelio: parse header: %w", err)
	}
	if h.Version != version {
		return nil, fmt.Errorf("modelio: unsupported version %d", h.Version)
	}
	g := graph.New(h.Name, h.InShape)
	for _, spec := range h.Nodes {
		op, err := decodeOp(spec)
		if err != nil {
			return nil, err
		}
		if _, err := g.Add(op, spec.Inputs...); err != nil {
			return nil, fmt.Errorf("modelio: rebuild graph: %w", err)
		}
	}
	if h.HasWeights {
		for _, n := range g.Nodes() {
			if err := readWeights(in, n.Op); err != nil {
				return nil, fmt.Errorf("modelio: node %q weights: %w", n.Op.Name(), err)
			}
		}
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("modelio: loaded graph invalid: %w", err)
	}
	return g, nil
}

// SaveFile writes the graph to path.
func SaveFile(path string, g *graph.Graph, withWeights bool) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}()
	return Save(f, g, withWeights)
}

// LoadFile reads a graph from path.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	size := int64(-1)
	if fi, err := f.Stat(); err == nil && fi.Mode().IsRegular() {
		size = fi.Size()
	}
	return load(f, size)
}

// encodeOp describes op for the header. A layer with an epilogue (a folded
// BatchNorm or ReLU) is written as kind "FusedConv2D", with attrs bn and
// relu, or "FusedDense", so a reader that knows only the plain kinds refuses
// it rather than dropping the epilogue. An op with its height padding off
// (ValidH) exists only inside a spatial part's graph, which is built from
// the model, never saved; the format has no attribute for it, so it is
// refused.
func encodeOp(op nn.Op) (opSpec, error) {
	spec := opSpec{Kind: op.Kind().String(), Name: op.Name(), Attrs: map[string]int{}}
	validH := false
	switch o := op.(type) {
	case *nn.Conv2D:
		validH = o.ValidH
		spec.Attrs["inC"] = o.InC
		spec.Attrs["outC"] = o.OutC
		spec.Attrs["kernel"] = o.Kernel
		spec.Attrs["stride"] = o.Stride
		spec.Attrs["pad"] = o.Pad
		if o.Scale != nil || o.Relu {
			spec.Kind = "FusedConv2D"
		}
		if o.Scale != nil {
			spec.Attrs["bn"] = 1
		}
		if o.Relu {
			spec.Attrs["relu"] = 1
		}
	case *nn.DepthwiseConv2D:
		validH = o.ValidH
		spec.Attrs["c"] = o.C
		spec.Attrs["kernel"] = o.Kernel
		spec.Attrs["stride"] = o.Stride
		spec.Attrs["pad"] = o.Pad
		spec.Attrs["lo"] = o.Lo
		spec.Attrs["hi"] = o.Hi
	case *nn.BatchNorm:
		spec.Attrs["c"] = o.C
	case *nn.MaxPool2D:
		validH = o.ValidH
		spec.Attrs["kernel"] = o.Kernel
		spec.Attrs["stride"] = o.Stride
		spec.Attrs["pad"] = o.Pad
	case *nn.AvgPool2D:
		spec.Attrs["kernel"] = o.Kernel
		spec.Attrs["stride"] = o.Stride
	case *nn.Dense:
		spec.Attrs["in"] = o.In
		spec.Attrs["out"] = o.Out
		if o.Relu {
			spec.Kind = "FusedDense"
		}
	case *nn.LSTM:
		spec.Attrs["in"] = o.InSize
		spec.Attrs["hidden"] = o.Hidden
	case *nn.ReLU, *nn.Add, *nn.Softmax, *nn.Flatten, *nn.GlobalAvgPool, *nn.TakeLast, *nn.Concat:
		// no attributes
	default:
		return opSpec{}, fmt.Errorf("modelio: cannot serialize op kind %s", op.Kind())
	}
	if validH {
		return opSpec{}, fmt.Errorf("modelio: %s %q has no height padding (a spatial part's copy) and cannot be saved", op.Kind(), op.Name())
	}
	return spec, nil
}

func decodeOp(spec opSpec) (nn.Op, error) {
	a := spec.Attrs
	switch spec.Kind {
	case "Conv2D", "FusedConv2D":
		c := nn.NewConv2D(spec.Name, a["inC"], a["outC"], a["kernel"], a["stride"], a["pad"])
		fused := spec.Kind == "FusedConv2D"
		c.Relu = fused && a["relu"] == 1
		if fused && a["bn"] == 1 {
			// Placeholders for the folded affine, so that the op counts its
			// FLOPs and parameters, Init draws it and SetWeights takes it
			// from the weight block. They are allocated here, before any
			// weight is read, so outC is checked first: it is a dimension of
			// the scale and shift and bounded like any other.
			if c.OutC <= 0 || c.OutC > maxDim {
				return nil, fmt.Errorf("modelio: %s %q: bad output channels %d", spec.Kind, spec.Name, c.OutC)
			}
			c.Scale, c.Shift = tensor.New(c.OutC), tensor.New(c.OutC)
		}
		return c, nil
	case "DepthwiseConv2D":
		op := nn.NewDepthwiseConv2D(spec.Name, a["c"], a["kernel"], a["stride"], a["pad"])
		if a["hi"] > 0 {
			op.Lo, op.Hi = a["lo"], a["hi"]
		}
		return op, nil
	case "BatchNorm":
		return nn.NewBatchNorm(spec.Name, a["c"]), nil
	case "MaxPool2D":
		return nn.NewMaxPool2D(spec.Name, a["kernel"], a["stride"], a["pad"]), nil
	case "AvgPool2D":
		return nn.NewAvgPool2D(spec.Name, a["kernel"], a["stride"]), nil
	case "Dense", "FusedDense":
		d := nn.NewDense(spec.Name, a["in"], a["out"])
		d.Relu = spec.Kind == "FusedDense"
		return d, nil
	case "LSTM":
		return nn.NewLSTM(spec.Name, a["in"], a["hidden"]), nil
	case "ReLU":
		return nn.NewReLU(spec.Name), nil
	case "Add":
		return nn.NewAdd(spec.Name), nil
	case "Softmax":
		return nn.NewSoftmax(spec.Name), nil
	case "Flatten":
		return nn.NewFlatten(spec.Name), nil
	case "GlobalAvgPool":
		return nn.NewGlobalAvgPool(spec.Name), nil
	case "TakeLast":
		return nn.NewTakeLast(spec.Name), nil
	case "Concat":
		return nn.NewConcat(spec.Name), nil
	}
	return nil, fmt.Errorf("modelio: unknown op kind %q", spec.Kind)
}

func writeWeights(w io.Writer, op nn.Op) error {
	wt, ok := op.(nn.Weighted)
	if !ok {
		return binary.Write(w, binary.LittleEndian, uint32(0))
	}
	ws := wt.Weights()
	if err := binary.Write(w, binary.LittleEndian, uint32(len(ws))); err != nil {
		return err
	}
	for _, t := range ws {
		shape := t.Shape()
		if err := binary.Write(w, binary.LittleEndian, uint8(len(shape))); err != nil {
			return err
		}
		for _, d := range shape {
			if err := binary.Write(w, binary.LittleEndian, uint32(d)); err != nil {
				return err
			}
		}
		b := bytesOf(t.Data())
		if bigEndian {
			b = append([]byte(nil), b...)
			swap32(b)
		}
		if _, err := w.Write(b); err != nil {
			return err
		}
	}
	return nil
}

func readWeights(in *input, op nn.Op) error {
	count, err := in.u32()
	if err != nil {
		return err
	}
	wt, ok := op.(nn.Weighted)
	if !ok {
		if count != 0 {
			return fmt.Errorf("weight block for weight-free op")
		}
		return nil
	}
	if want := len(wt.Weights()); int(count) != want {
		return fmt.Errorf("%d weight tensors, want %d", count, want)
	}
	// Every tensor must fit in what is left of the op's parameters, and in
	// what is left of the input, before anything is allocated for it, so a
	// forged shape can neither overflow nor ask for more memory than the
	// header's op declares or the input holds.
	budget := op.ParamCount()
	ws := make([]*tensor.Tensor, count)
	for i := range ws {
		rank, err := in.u8()
		if err != nil {
			return err
		}
		if rank == 0 || rank > 8 {
			return fmt.Errorf("bad tensor rank %d", rank)
		}
		shape := make([]int, rank)
		n := 1
		for d := range shape {
			v, err := in.u32()
			if err != nil {
				return err
			}
			if v == 0 || v > maxDim || int64(v) > budget/int64(n) {
				return fmt.Errorf("weight %d: bad dimension %d", i, v)
			}
			shape[d] = int(v)
			n *= int(v)
		}
		budget -= int64(n)
		if !in.fits(4 * int64(n)) {
			return fmt.Errorf("weight %d: %d bytes, more than the input has left: %w", i, 4*n, io.ErrUnexpectedEOF)
		}
		// The bytes go straight into the tensor's memory: one copy, from
		// the file, and no conversion on a little-endian host.
		data := make([]float32, n)
		b := bytesOf(data)
		if err := in.read(b); err != nil {
			return err
		}
		if bigEndian {
			swap32(b)
		}
		t, err := tensor.FromData(data, shape...)
		if err != nil {
			return err
		}
		ws[i] = t
	}
	return wt.SetWeights(ws)
}

// input is a model file being read: a buffered reader and, if known, the
// number of bytes it has left.
type input struct {
	br   *bufio.Reader
	left int64 // < 0: unknown
	word [4]byte
}

// fits reports whether the input may still hold n more bytes.
func (in *input) fits(n int64) bool { return in.left < 0 || n <= in.left }

// read fills p. A read longer than what the input has left fails without
// reading.
func (in *input) read(p []byte) error {
	if !in.fits(int64(len(p))) {
		return io.ErrUnexpectedEOF
	}
	if in.left >= 0 {
		in.left -= int64(len(p))
	}
	_, err := io.ReadFull(in.br, p)
	return err
}

func (in *input) u32() (uint32, error) {
	err := in.read(in.word[:4])
	return binary.LittleEndian.Uint32(in.word[:4]), err
}

func (in *input) u8() (uint8, error) {
	err := in.read(in.word[:1])
	return in.word[0], err
}

// bigEndian is whether this host stores a float32 with its bytes in the
// opposite order from the file, which is little-endian.
var bigEndian = binary.NativeEndian.Uint16([]byte{1, 0}) != 1

// bytesOf is the memory of data as bytes, in the host's order.
func bytesOf(data []float32) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(data))), 4*len(data))
}

// swap32 reverses the byte order of each 4-byte word of b, in place.
func swap32(b []byte) {
	for i := 0; i+4 <= len(b); i += 4 {
		b[i], b[i+1], b[i+2], b[i+3] = b[i+3], b[i+2], b[i+1], b[i]
	}
}
