package partition

import (
	"fmt"
	"math"
	"slices"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// Graph lowers the part to the graph a function runs for it. The graph's
// input is the part's slab — rows ps.InRows of the group input, full
// channels and width — and its output rows ps.OutRows of the group output,
// bitwise equal to the corresponding rows of a monolithic run. It has one
// node per unit node with rows to compute, in execution order, each running
// its operator without height padding (nn.Spatial.ForwardValidHInto): where
// a node needs other rows than its source holds, it first cuts them into a
// window in its work space (graph.Scratcher), interior halo rows from the
// source and boundary overhang filled with the op's padding value (0, or -inf
// for max pooling), exactly as implicit padding would. A node reports itself
// to an observer as the operator it wraps. The ops are the units' own,
// weights and all.
func (ps PartSlice) Graph(units []*Unit) (*graph.Graph, error) {
	if len(units) == 0 || len(units) != len(ps.units) {
		return nil, fmt.Errorf("partition: slice built for %d units, got %d", len(ps.units), len(units))
	}
	in := units[0].InShape
	g := graph.New(fmt.Sprintf("%s[h%d:%d]", units[len(units)-1].Name, ps.OutRows.Lo, ps.OutRows.Hi),
		[]int{in[0], ps.InRows.Len(), in[2]})
	prevOut := graph.InputID // the node producing the current unit's input
	curRange := ps.InRows
	for ui, u := range units {
		us := ps.units[ui]
		if len(us.nodes) != u.Sub.Len() {
			return nil, fmt.Errorf("partition: unit %d has %d nodes, slice expects %d", ui, u.Sub.Len(), len(us.nodes))
		}
		if us.inRows != curRange {
			return nil, fmt.Errorf("partition: unit %d input rows %v, slice expects %v", ui, curRange, us.inRows)
		}
		shapes := u.NodeShapes()
		idOf := make([]int, u.Sub.Len())
		for _, node := range u.Sub.Nodes() {
			outRange := us.nodes[node.ID]
			if outRange.Len() <= 0 {
				continue // dead node for this partition (cannot happen in practice)
			}
			sp, ok := node.Op.(nn.Spatial)
			if !ok {
				return nil, fmt.Errorf("partition: unit %d node %s is not spatial", u.Index, node.Op.Name())
			}
			k, s, p := sp.HKernel()
			req := inRangeForOut(outRange, k, s, p)
			shape := shapes[node.ID]
			op := &partOp{Op: sp, sp: sp, out: []int{shape[0], outRange.Len(), shape[2]}, ins: make([]window, len(node.Inputs))}
			if h := shape[1]; h > 0 {
				op.flops = node.Op.FLOPs(u.NodeInShapes(node)...) * int64(outRange.Len()) / int64(h)
			}
			srcs := make([]int, len(node.Inputs))
			for i, in := range node.Inputs {
				src, srcRange, full := prevOut, us.inRows, u.InShape
				if in != graph.InputID {
					src, srcRange, full = idOf[in], us.nodes[in], shapes[in]
				}
				inside := req.clip(full[1])
				if inside.Lo < srcRange.Lo || inside.Hi > srcRange.Hi || inside.Len() <= 0 {
					return nil, fmt.Errorf("partition: unit %d node %s: need rows %v but slab covers %v (h=%d)",
						u.Index, node.Op.Name(), req, srcRange, full[1])
				}
				srcs[i] = src
				w := window{src: []int{full[0], srcRange.Len(), full[2]}}
				if req != srcRange {
					w.cut, w.h = true, req.Len()
					w.srcLo, w.lo, w.hi = inside.Lo-srcRange.Lo, inside.Lo-req.Lo, inside.Hi-req.Lo
					w.fill = padValue(node.Op)
					op.scratch += w.size()
				}
				op.ins[i] = w
			}
			id, err := g.Add(op, srcs...)
			if err != nil {
				return nil, err
			}
			idOf[node.ID] = id
		}
		curRange = us.nodes[u.Sub.OutputID()]
		if curRange.Len() <= 0 {
			return nil, fmt.Errorf("partition: unit %d (%s) has no rows to compute", u.Index, u.Name)
		}
		prevOut = idOf[u.Sub.OutputID()]
	}
	return g, nil
}

// partOp is one node of a lowered part: its operator run without height
// padding on the rows its inputs hold, or on windows cut from them. Name,
// Kind and weights are the operator's own.
type partOp struct {
	nn.Op
	sp      nn.Spatial // the same operator
	ins     []window   // per input
	out     []int      // output shape: the rows this part computes
	flops   int64      // the operator's FLOPs on those rows
	scratch int        // floats of the windows to cut
}

// window is how one input of a part node reaches its operator: the source's
// rows as they are, or — when the node needs other rows than the source
// holds — cut into an h-row window in work space: source rows
// [srcLo, srcLo+hi-lo) of every channel land at window rows [lo, hi), and the
// rows above and below, which overhang the feature map, hold fill.
type window struct {
	src              []int // the shape the source holds
	cut              bool
	h, srcLo, lo, hi int
	fill             float32
}

func (w window) size() int { return w.src[0] * w.h * w.src[2] }

// OutShape implements nn.Op: the inputs must be what the part's sources
// hold.
func (o *partOp) OutShape(in ...[]int) ([]int, error) {
	if len(in) != len(o.ins) {
		return nil, fmt.Errorf("partition: %s takes %d inputs, got %d", o.Name(), len(o.ins), len(in))
	}
	for i, s := range in {
		if !slices.Equal(s, o.ins[i].src) {
			return nil, fmt.Errorf("partition: %s input %d has shape %v, want %v", o.Name(), i, s, o.ins[i].src)
		}
	}
	return slices.Clone(o.out), nil
}

// FLOPs implements nn.Op: the operator's work on the part's rows.
func (o *partOp) FLOPs(...[]int) int64 { return o.flops }

// Forward implements nn.Op.
func (o *partOp) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) {
	dst := tensor.New(o.out...)
	if err := o.ForwardInto(dst, in...); err != nil {
		return nil, err
	}
	return dst, nil
}

// ForwardInto implements nn.Op, with work space and an input list of its
// own.
func (o *partOp) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	return o.ForwardScratchInto(dst, make([]float32, o.scratch), slices.Clone(in)...)
}

// ScratchFloats implements graph.Scratcher: the windows the node cuts.
func (o *partOp) ScratchFloats() int { return o.scratch }

// ForwardScratchInto implements graph.Scratcher: it cuts the windows into
// scratch, puts them in place of their sources in in, and runs the operator
// on that without height padding.
func (o *partOp) ForwardScratchInto(dst *tensor.Tensor, scratch []float32, in ...*tensor.Tensor) error {
	if len(in) != len(o.ins) {
		return fmt.Errorf("partition: %s takes %d inputs, got %d", o.Name(), len(o.ins), len(in))
	}
	off := 0
	for i, x := range in {
		w := o.ins[i]
		if !w.cut {
			continue
		}
		if !x.HasShape(w.src) {
			return fmt.Errorf("partition: %s input %d has shape %v, want %v", o.Name(), i, x.Shape(), w.src)
		}
		end := off + w.size()
		w.cutInto(scratch[off:end:end], x.Data())
		var err error
		if in[i], err = tensor.FromData(scratch[off:end:end], w.src[0], w.h, w.src[2]); err != nil {
			return err
		}
		off = end
	}
	return o.sp.ForwardValidHInto(dst, in...)
}

// cutInto writes the window: per channel, fill above, the source's rows,
// fill below. Every element is written — the arena is not zeroed, so a zero
// border is filled like any other.
func (w window) cutInto(win, src []float32) {
	width, srcRows := w.src[2], w.src[1]
	for ci := 0; ci < w.src[0]; ci++ {
		ch := win[ci*w.h*width : (ci+1)*w.h*width]
		fillF32(ch[:w.lo*width], w.fill)
		copy(ch[w.lo*width:w.hi*width], src[(ci*srcRows+w.srcLo)*width:])
		fillF32(ch[w.hi*width:], w.fill)
	}
}

// fillF32 sets every element of s to v.
func fillF32(s []float32, v float32) {
	for i := range s {
		s[i] = v
	}
}

// padValue returns the implicit padding fill of an op (-inf for max
// pooling, zero otherwise).
func padValue(op nn.Op) float32 {
	if op.Kind() == nn.KindMaxPool {
		return float32(math.Inf(-1))
	}
	return 0
}

// ExecSpatial partitions the group `parts` ways, runs every partition's
// graph (PartSlice.Graph) on its slab, and reassembles the full output. It is
// the in-process reference for what master and workers do cooperatively in
// the serving runtime.
func ExecSpatial(units []*Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := SpatialSlices(units, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, ps := range slices {
		g, err := ps.Graph(units)
		if err != nil {
			return nil, err
		}
		slab, err := InputSlab(x, ps)
		if err != nil {
			return nil, err
		}
		if outs[i], err = g.Forward(slab); err != nil {
			return nil, err
		}
	}
	return tensor.ConcatDim(1, outs...)
}

// ExecChannel partitions a single unit `parts` ways along output channels,
// executes every slice on the full input, and reassembles.
func ExecChannel(u *Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := ChannelSlices(u, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, cs := range slices {
		out, err := cs.Sub.Forward(x)
		if err != nil {
			return nil, err
		}
		outs[i] = out
	}
	return tensor.ConcatDim(0, outs...)
}

// InputSlab extracts the group-input rows a spatial partition needs.
func InputSlab(x *tensor.Tensor, ps PartSlice) (*tensor.Tensor, error) {
	return x.SliceDim(1, ps.InRows.Lo, ps.InRows.Hi)
}
