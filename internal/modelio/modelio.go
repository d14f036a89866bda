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
	"math"
	"os"

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

// Load reads a graph written by Save.
func Load(r io.Reader) (*graph.Graph, error) {
	br := bufio.NewReaderSize(r, 1<<20)
	mg := make([]byte, len(magic))
	if _, err := io.ReadFull(br, mg); err != nil {
		return nil, fmt.Errorf("modelio: read magic: %w", err)
	}
	if string(mg) != magic {
		return nil, fmt.Errorf("modelio: bad magic %q", mg)
	}
	var hlen uint32
	if err := binary.Read(br, binary.LittleEndian, &hlen); err != nil {
		return nil, fmt.Errorf("modelio: read header length: %w", err)
	}
	const maxHeader = 64 << 20
	if hlen > maxHeader {
		return nil, fmt.Errorf("modelio: header length %d exceeds limit", hlen)
	}
	hb := make([]byte, hlen)
	if _, err := io.ReadFull(br, hb); err != nil {
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
			if err := readWeights(br, n.Op); err != nil {
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
	return Load(f)
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
		buf := make([]byte, 4*len(t.Data()))
		for i, v := range t.Data() {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(v))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

func readWeights(r io.Reader, op nn.Op) error {
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
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
	// Every tensor must fit in what is left of the op's parameters before
	// anything is allocated for it, so a forged shape can neither overflow
	// nor ask for more memory than the header's op declares.
	budget := op.ParamCount()
	ws := make([]*tensor.Tensor, count)
	for i := range ws {
		var rank uint8
		if err := binary.Read(r, binary.LittleEndian, &rank); err != nil {
			return err
		}
		if rank == 0 || rank > 8 {
			return fmt.Errorf("bad tensor rank %d", rank)
		}
		shape := make([]int, rank)
		n := 1
		for d := range shape {
			var v uint32
			if err := binary.Read(r, binary.LittleEndian, &v); err != nil {
				return err
			}
			if v == 0 || v > maxDim || int64(v) > budget/int64(n) {
				return fmt.Errorf("weight %d: bad dimension %d", i, v)
			}
			shape[d] = int(v)
			n *= int(v)
		}
		budget -= int64(n)
		buf := make([]byte, 4*n)
		if _, err := io.ReadFull(r, buf); err != nil {
			return err
		}
		data := make([]float32, n)
		for j := range data {
			data[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		t, err := tensor.FromData(data, shape...)
		if err != nil {
			return err
		}
		ws[i] = t
	}
	return wt.SetWeights(ws)
}
