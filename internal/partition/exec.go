package partition

import (
	"fmt"
	"math"
	"sync"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// ExecSpatialPart computes one spatial partition of a layer group. slab must
// contain rows slice.InRows of the group input (full channels and width).
// The result contains rows slice.OutRows of the group output, bitwise equal
// to the corresponding rows of a monolithic run: interior halo rows come
// from the slab and boundary overhang is filled with the op's padding value
// (0, or -inf for max pooling), exactly as implicit padding would.
//
// The part's whole unit chain runs in one activation arena taken from par's
// scratch pool, laid out once per slice by the liveness plan graph.Forward
// uses (partProgram); only the result is a tensor of its own. obs, when not
// nil, is notified of every operator application (graph.Observer).
func ExecSpatialPart(units []*Unit, slice PartSlice, slab *tensor.Tensor, obs graph.Observer) (*tensor.Tensor, error) {
	prog, err := slice.program(units)
	if err != nil {
		return nil, err
	}
	in := units[0].InShape
	if slab.Rank() != 3 || slab.Dim(0) != in[0] || slab.Dim(1) != slice.InRows.Len() || slab.Dim(2) != in[2] {
		return nil, fmt.Errorf("partition: slab %v does not hold rows %v of a %v input", slab.Shape(), slice.InRows, in)
	}
	arena := par.GetF32(prog.size)
	defer par.PutF32(arena)
	return prog.run(units, *arena, slab, obs)
}

// partProgram is one spatial part of a unit chain as a straight-line
// program: one step per node with rows to compute, in execution order, with
// every buffer the steps write — node outputs and the input windows that have
// to be cut — at its offset in the part's arena.
type partProgram struct {
	// once because units and slices are shared across request Envs:
	// concurrent gillis-server handlers may run a part for the first time
	// together.
	once  sync.Once
	err   error
	steps []partStep
	size  int // floats the arena holds
}

// partStep is one node's ForwardValidHInto.
type partStep struct {
	unit, node int // units[unit].Sub.Node(node)
	ins        []partInput
	out        partBuffer
}

// partBuffer is a CHW buffer at an arena offset; off < 0 is the part's
// result, a tensor of its own.
type partBuffer struct {
	off     int
	c, h, w int
}

func (b partBuffer) size() int { return b.c * b.h * b.w }

// partInput is where one input of a step comes from: the output of step src
// (the part's slab for src < 0), either as it is — the rows the node needs are
// exactly the rows the source holds — or cut into window win: source rows
// [srcLo, srcLo+hi-lo) of every channel land at window rows [lo, hi), and the
// rows above and below, which overhang the feature map, hold fill.
type partInput struct {
	src           int
	whole         bool
	win           partBuffer
	srcLo, lo, hi int
	fill          float32
}

// program returns the slice's program, building it on first use.
func (ps PartSlice) program(units []*Unit) (*partProgram, error) {
	if len(units) != len(ps.units) || ps.prog == nil {
		return nil, fmt.Errorf("partition: slice built for %d units, got %d", len(ps.units), len(units))
	}
	ps.prog.once.Do(func() { ps.prog.err = ps.prog.build(units, ps) })
	return ps.prog, ps.prog.err
}

// ArenaBytes is the size of the activation arena ExecSpatialPart runs this
// part of units in — the most bytes of node outputs and cut windows live at
// once, the slab and the result (payloads, which their holders own) not among
// them. It is what the part's execution takes from the pool, where ActBytes
// is the planner's estimate of it.
func (ps PartSlice) ArenaBytes(units []*Unit) (int64, error) {
	prog, err := ps.program(units)
	if err != nil {
		return 0, err
	}
	return int64(prog.size) * 4, nil
}

// build lowers the part: it walks the units' nodes in order, checks that
// every window a node needs lies inside the rows its source holds, and lays
// the buffers out with graph.Layout. A buffer is live from the step that
// writes it to the last step that reads it; a window only during its step.
func (pr *partProgram) build(units []*Unit, ps PartSlice) error {
	nodes := 0
	for _, u := range units {
		nodes += u.Sub.Len()
	}
	// At most one step per node: steps never moves, so slots can point into it.
	pr.steps = make([]partStep, 0, nodes)
	var bufs []graph.Buffer
	var slots []*partBuffer // bufs[i] lays out *slots[i]
	var outBuf []int        // per step, the index in bufs of its output
	prevOut := -1           // step producing the current unit's input; the slab for unit 0
	curRange := ps.InRows
	for ui, u := range units {
		us := ps.units[ui]
		if us.inRows != curRange {
			return fmt.Errorf("partition: unit %d input rows %v, slice expects %v", ui, curRange, us.inRows)
		}
		shapes := u.NodeShapes()
		stepOf := make([]int, u.Sub.Len())
		for _, node := range u.Sub.Nodes() {
			outRange := us.nodes[node.ID]
			if outRange.Len() <= 0 {
				continue // dead node for this partition (cannot happen in practice)
			}
			k, s, p, err := hksp(node.Op)
			if err != nil {
				return err
			}
			req := inRangeForOut(outRange, k, s, p)
			step := len(pr.steps)
			pr.steps = append(pr.steps, partStep{unit: ui, node: node.ID, ins: make([]partInput, len(node.Inputs))})
			st := &pr.steps[step]
			for i, in := range node.Inputs {
				src, srcRange, shape := prevOut, us.inRows, u.InShape
				if in != graph.InputID {
					src, srcRange, shape = stepOf[in], us.nodes[in], shapes[in]
				}
				inside := req.clip(shape[1])
				if inside.Lo < srcRange.Lo || inside.Hi > srcRange.Hi || inside.Len() <= 0 {
					return fmt.Errorf("partition: unit %d node %s: need rows %v but slab covers %v (h=%d)",
						u.Index, node.Op.Name(), req, srcRange, shape[1])
				}
				if src >= 0 {
					bufs[outBuf[src]].Last = step
				}
				pi := &st.ins[i]
				*pi = partInput{src: src, whole: req == srcRange}
				if pi.whole {
					continue
				}
				pi.win = partBuffer{c: shape[0], h: req.Len(), w: shape[2]}
				pi.srcLo, pi.lo, pi.hi = inside.Lo-srcRange.Lo, inside.Lo-req.Lo, inside.Hi-req.Lo
				pi.fill = padValue(node.Op)
				bufs = append(bufs, graph.Buffer{Size: pi.win.size(), Def: step, Last: step})
				slots = append(slots, &pi.win)
			}
			st.out = partBuffer{c: shapes[node.ID][0], h: outRange.Len(), w: shapes[node.ID][2]}
			outBuf = append(outBuf, len(bufs))
			bufs = append(bufs, graph.Buffer{Size: st.out.size(), Def: step, Last: step})
			slots = append(slots, &st.out)
			stepOf[node.ID] = step
		}
		curRange = us.nodes[u.Sub.OutputID()]
		if curRange.Len() <= 0 {
			return fmt.Errorf("partition: unit %d (%s) has no rows to compute", u.Index, u.Name)
		}
		prevOut = stepOf[u.Sub.OutputID()]
	}
	// The chain's output is the last buffer written; it leaves the arena.
	final := len(bufs) - 1
	offs, size := graph.Layout(bufs[:final])
	for i, off := range offs {
		slots[i].off = off
	}
	slots[final].off = -1
	pr.size = size
	return nil
}

// run executes the program in arena.
func (pr *partProgram) run(units []*Unit, arena []float32, slab *tensor.Tensor, obs graph.Observer) (*tensor.Tensor, error) {
	view := func(b partBuffer) (*tensor.Tensor, error) {
		if b.off < 0 {
			return tensor.New(b.c, b.h, b.w), nil
		}
		end := b.off + b.size()
		return tensor.FromData(arena[b.off:end:end], b.c, b.h, b.w)
	}
	vals := make([]*tensor.Tensor, len(pr.steps))
	var ins []*tensor.Tensor
	for si, st := range pr.steps {
		u := units[st.unit]
		op := u.Sub.Node(st.node).Op
		fail := func(err error) (*tensor.Tensor, error) {
			return nil, fmt.Errorf("partition: unit %d node %s: %w", u.Index, op.Name(), err)
		}
		ins = ins[:0]
		for _, in := range st.ins {
			src := slab
			if in.src >= 0 {
				src = vals[in.src]
			}
			if !in.whole {
				win, err := view(in.win)
				if err != nil {
					return fail(err)
				}
				in.cut(win.Data(), src.Data(), src.Dim(1))
				src = win
			}
			ins = append(ins, src)
		}
		dst, err := view(st.out)
		if err != nil {
			return fail(err)
		}
		sp, ok := op.(nn.Spatial)
		if !ok {
			return fail(fmt.Errorf("not spatial"))
		}
		if obs != nil {
			obs(op)
		}
		if err := sp.ForwardValidHInto(dst, ins...); err != nil {
			return fail(err)
		}
		vals[si] = dst
	}
	return vals[len(vals)-1], nil
}

// cut writes the window: per channel, fill above, the source's rows, fill
// below. Every element is written — the arena is not zeroed, so a zero border
// is filled like any other.
func (in partInput) cut(win, src []float32, srcRows int) {
	w, h := in.win.w, in.win.h
	for ci := 0; ci < in.win.c; ci++ {
		ch := win[ci*h*w : (ci+1)*h*w]
		fillF32(ch[:in.lo*w], in.fill)
		copy(ch[in.lo*w:in.hi*w], src[(ci*srcRows+in.srcLo)*w:])
		fillF32(ch[in.hi*w:], in.fill)
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

// ExecSpatial partitions the group `parts` ways, executes every partition,
// and reassembles the full output. It is the in-process reference for what
// master and workers do cooperatively in the serving runtime.
func ExecSpatial(units []*Unit, parts int, x *tensor.Tensor) (*tensor.Tensor, error) {
	slices, err := SpatialSlices(units, parts)
	if err != nil {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(slices))
	for i, ps := range slices {
		slab, err := x.SliceDim(1, ps.InRows.Lo, ps.InRows.Hi)
		if err != nil {
			return nil, err
		}
		out, err := ExecSpatialPart(units, ps, slab, nil)
		if err != nil {
			return nil, err
		}
		outs[i] = out
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
