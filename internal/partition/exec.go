package partition

import (
	"fmt"
	"math"

	"gillis/internal/graph"
	"gillis/internal/nn"
)

// Graph lowers the part to the graph a function runs for it: ordinary nn
// ops, the units' own. The graph's input is the whole group input, and its
// output rows ps.OutRows of the group output, bitwise equal to the
// corresponding rows of a monolithic run. Every unit node with rows to
// compute, across all the group's units and in execution order, runs on the
// rows its inputs hold: an operator that pads height as a copy with ValidH
// set (padding along width only; it shares the weights), any other as
// itself. Where a node needs other rows than a source holds, a window node
// (nn.RowWindow) just before it cuts them — from the group input, the part's
// own rows of it; from a node inside the group, its halo rows — and fills the
// boundary overhang with the op's padding value (0, or -inf for max pooling),
// exactly as implicit padding would. So a part's op:<name> events are the
// monolithic graph's plus its windows, and the part reads its rows of the
// group input straight into its arena: the master and its workers hand every
// part the same input, and nothing copies a slab of it first.
func (ps PartSlice) Graph(units []*Unit) (*graph.Graph, error) {
	if len(units) == 0 || len(units) != len(ps.units) {
		return nil, fmt.Errorf("partition: slice built for %d units, got %d", len(ps.units), len(units))
	}
	in := units[0].InShape
	g := graph.New(fmt.Sprintf("%s[h%d:%d]", units[len(units)-1].Name, ps.OutRows.Lo, ps.OutRows.Hi), in)
	prevOut := graph.InputID           // the node producing the current unit's input
	held := RowRange{Lo: 0, Hi: in[1]} // the rows of it prevOut holds
	curRange := ps.InRows
	for ui, u := range units {
		us := ps.units[ui]
		if len(us.nodes) != u.Sub.Len() {
			return nil, fmt.Errorf("partition: unit %d has %d nodes, slice expects %d", ui, u.Sub.Len(), len(us.nodes))
		}
		if !u.Spatial {
			return nil, fmt.Errorf("partition: unit %d (%s) is not spatial", u.Index, u.Name)
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
			w := u.windows[node.ID]
			req := inRangeForOut(outRange, w.k, w.s, w.p)
			srcs := make([]int, len(node.Inputs))
			ins := make([][]int, len(node.Inputs)) // the shapes the op reads
			for i, in := range node.Inputs {
				src, srcRange, full := prevOut, held, u.InShape
				if in != graph.InputID {
					src, srcRange, full = idOf[in], us.nodes[in], shapes[in]
				}
				inside := req.clip(full[1])
				if inside.Lo < srcRange.Lo || inside.Hi > srcRange.Hi || inside.Len() <= 0 {
					return nil, fmt.Errorf("partition: unit %d node %s: need rows %v but its source holds %v (h=%d)",
						u.Index, node.Op.Name(), req, srcRange, full[1])
				}
				srcs[i], ins[i] = src, []int{full[0], srcRange.Len(), full[2]}
				if req != srcRange {
					win := &nn.RowWindow{OpName: nn.OpName(fmt.Sprintf("%s.in%d[h%d:%d]", node.Op.Name(), i, req.Lo, req.Hi)),
						In: ins[i], H: req.Len(), SrcLo: inside.Lo - srcRange.Lo,
						Lo: inside.Lo - req.Lo, Hi: inside.Hi - req.Lo, Fill: padValue(node.Op)}
					var err error
					if srcs[i], err = g.Add(win, src); err != nil {
						return nil, err
					}
					ins[i] = []int{full[0], req.Len(), full[2]}
				}
			}
			op := validH(node.Op, w.p)
			if out, err := op.OutShape(ins...); err != nil || len(out) != 3 || out[1] != outRange.Len() {
				return nil, fmt.Errorf("partition: unit %d node %s computes %v from %v, want rows %v (%v)",
					u.Index, node.Op.Name(), out, ins, outRange, err)
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
		prevOut, held = idOf[u.Sub.OutputID()], curRange
	}
	return g, nil
}

// validH returns op as a part runs it on rows that carry their halo: an op
// that pads height (p > 0) as a copy with ValidH set, sharing its weights
// and epilogue; any other op as itself.
func validH(op nn.Op, p int) nn.Op {
	if p == 0 {
		return op
	}
	switch o := op.(type) {
	case *nn.Conv2D:
		c := *o
		c.ValidH = true
		return &c
	case *nn.DepthwiseConv2D:
		d := *o
		d.ValidH = true
		return &d
	case *nn.MaxPool2D:
		m := *o
		m.ValidH = true
		return &m
	}
	return op
}

// padValue returns the implicit padding fill of an op (-inf for max
// pooling, zero otherwise).
func padValue(op nn.Op) float32 {
	if op.Kind() == nn.KindMaxPool {
		return float32(math.Inf(-1))
	}
	return 0
}
