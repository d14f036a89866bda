// Package modelio serializes model graphs to a compact self-contained
// binary format ("ONNX-lite"): a JSON structure header followed by raw
// little-endian fp32 weight blocks. It fills the role ONNX plays in the
// original Gillis system — a platform-neutral interchange format that the
// deployment pipeline packages into serverless functions.
//
// Each weight tensor's data starts at a file offset that is a multiple of
// 64, so a loaded graph's weights alias the file's bytes: LoadFile maps the
// file and reads nothing into the heap.
package modelio

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"unsafe"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

const (
	magic   = "GLSM"
	version = 2
	// align is what every weight tensor's file offset is a multiple of; the
	// zero padding before a tensor's data makes it so.
	align = 64
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
	out := &output{bw: bufio.NewWriterSize(w, 1<<20)}
	out.write([]byte(magic))
	out.u32(uint32(len(hb)))
	out.write(hb)
	if withWeights {
		for _, n := range g.Nodes() {
			writeWeights(out, n.Op)
		}
	}
	if out.err != nil {
		return out.err
	}
	return out.bw.Flush()
}

// parse reads a graph written by Save from b. The weight tensors alias b,
// which must stay unchanged for as long as the graph is used; on a
// big-endian host parse swaps their bytes in place. Nothing that b's length
// does not back is allocated.
func parse(b []byte) (*graph.Graph, error) {
	in := &input{b: b}
	mg, err := in.next(len(magic))
	if err != nil {
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
	if hlen > maxHeader || int(hlen) > in.left() {
		return nil, fmt.Errorf("modelio: header length %d exceeds the limit or the input", hlen)
	}
	hb, _ := in.next(int(hlen))
	var h header
	if err := json.Unmarshal(hb, &h); err != nil {
		return nil, fmt.Errorf("modelio: parse header: %w", err)
	}
	if h.Version != version {
		return nil, fmt.Errorf("modelio: unsupported version %d (this build reads version %d): re-export the model with `gillis export`", h.Version, version)
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

// SaveFile writes the graph to path. It writes a temporary file in path's
// directory and renames it over path, so a process that has path loaded
// keeps the file it mapped: truncating that file in place would pull the
// pages from under its weights.
func SaveFile(path string, g *graph.Graph, withWeights bool) (err error) {
	f, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(f.Name())
		}
	}()
	if err := Save(f, g, withWeights); err != nil {
		return err
	}
	if err := f.Chmod(0o644); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return os.Rename(f.Name(), path)
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
		if o.BN || o.Relu {
			spec.Kind = "FusedConv2D"
		}
		if o.BN {
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
		if c.OutC <= 0 || c.OutC > maxDim {
			return nil, fmt.Errorf("modelio: %s %q: bad output channels %d", spec.Kind, spec.Name, c.OutC)
		}
		fused := spec.Kind == "FusedConv2D"
		// The folded affine is a flag until its weights are read, like W
		// and B: decoding an op allocates nothing its header declares.
		c.BN = fused && a["bn"] == 1
		c.Relu = fused && a["relu"] == 1
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

func writeWeights(out *output, op nn.Op) {
	wt, ok := op.(nn.Weighted)
	if !ok {
		out.u32(0)
		return
	}
	ws := wt.Weights()
	out.u32(uint32(len(ws)))
	for _, t := range ws {
		shape := t.Shape()
		out.u8(uint8(len(shape)))
		for _, d := range shape {
			out.u32(uint32(d))
		}
		out.write(zeros[:padding(out.off)])
		b := bytesOf(t.Data())
		if bigEndian {
			b = append([]byte(nil), b...)
			swap32(b)
		}
		out.write(b)
	}
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
	// what is left of the input, before anything is made for it, so a forged
	// shape can neither overflow nor reach past the input.
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
		pad := padding(in.off)
		if pad > in.left() || n > (in.left()-pad)/4 {
			return fmt.Errorf("weight %d: %d floats, more than the input has left: %w", i, n, io.ErrUnexpectedEOF)
		}
		p, _ := in.next(pad)
		for _, c := range p {
			if c != 0 {
				return fmt.Errorf("weight %d: nonzero padding before its data", i)
			}
		}
		b, _ := in.next(4 * n)
		// The tensor is the input's own bytes: no copy, and no conversion on
		// a little-endian host.
		if uintptr(unsafe.Pointer(unsafe.SliceData(b)))%unsafe.Alignof(float32(0)) != 0 {
			return fmt.Errorf("weight %d: data at %p is not 4-byte aligned", i, unsafe.SliceData(b))
		}
		if bigEndian {
			swap32(b)
		}
		t, err := tensor.FromData(unsafe.Slice((*float32)(unsafe.Pointer(unsafe.SliceData(b))), n), shape...)
		if err != nil {
			return err
		}
		ws[i] = t
	}
	return wt.SetWeights(ws)
}

// output is a model file being written: a buffered writer, the file offset
// it has reached and the first error, after which nothing is written.
type output struct {
	bw   *bufio.Writer
	off  int
	err  error
	word [4]byte
}

func (out *output) write(p []byte) {
	if out.err == nil {
		var n int
		n, out.err = out.bw.Write(p)
		out.off += n
	}
}

func (out *output) u8(v uint8) {
	out.word[0] = v
	out.write(out.word[:1])
}

func (out *output) u32(v uint32) {
	binary.LittleEndian.PutUint32(out.word[:], v)
	out.write(out.word[:])
}

// input is a model file being read: its bytes and the offset reached.
type input struct {
	b   []byte
	off int
}

func (in *input) left() int { return len(in.b) - in.off }

// next returns the next n bytes, or an error if fewer are left.
func (in *input) next(n int) ([]byte, error) {
	if n > in.left() {
		return nil, io.ErrUnexpectedEOF
	}
	in.off += n
	return in.b[in.off-n : in.off], nil
}

func (in *input) u32() (uint32, error) {
	p, err := in.next(4)
	if err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(p), nil
}

func (in *input) u8() (uint8, error) {
	p, err := in.next(1)
	if err != nil {
		return 0, err
	}
	return p[0], nil
}

// padding is the number of zero bytes that take offset off to the next
// multiple of align.
func padding(off int) int { return -off & (align - 1) }

// zeros is the padding Save writes.
var zeros [align]byte

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
