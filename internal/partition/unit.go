// Package partition implements Gillis's model-partitioning substrate
// (§III-C of the paper): linearizing a model DAG into a chain of units via
// branch merging, fusing element-wise layers into their preceding
// weight-intensive layers, analyzing tensor dependencies to decide which
// dimensions a group of layers can be parallelized along, computing exact
// input halos (and hence redundant computation) for spatial partitions, and
// executing partitions with bit-exact equivalence to monolithic execution.
package partition

import (
	"fmt"
	"slices"
	"strings"

	"gillis/internal/graph"
	"gillis/internal/nn"
)

// Unit is one element of the linearized model: a single-input,
// single-output subgraph (a single layer, or a merged branch module such
// as a residual block, §III-C Fig. 5).
type Unit struct {
	// Index is the unit's position in the linearized chain.
	Index int
	// Name identifies the unit, derived from its primary op.
	Name string
	// Sub is the unit's subgraph; its InputID refers to the previous unit's
	// output (or the model input for unit 0).
	Sub *graph.Graph
	// InShape and OutShape are the unit's boundary shapes.
	InShape, OutShape []int
	// FLOPs and ParamBytes aggregate the subgraph.
	FLOPs      int64
	ParamBytes int64
	// shapes caches the subgraph's per-node output shapes, inShapes each
	// node's input shapes and nodeFLOPs each node's full FLOPs (computed once
	// at linearization; shape and FLOP queries are hot in the planners).
	shapes    [][]int
	inShapes  [][][]int
	nodeFLOPs []int64
	// windows holds each node's height kernel, stride and padding when the
	// unit is Spatial (nil otherwise), read once at linearization: the
	// spatial walk propagates rows through them for every planned group.
	windows []window
	// Spatial reports that every op in the unit has a local response along
	// the height axis, so the unit can join a spatially partitioned group.
	Spatial bool
	// Channel reports that the unit's output channels are independently
	// computable from a slice of its weights (single conv/dense plus fused
	// per-channel element-wise ops).
	Channel bool
}

// OutChannels returns the size of the channel dimension of the unit output
// (dimension 0 for CHW, the only dimension for dense outputs).
func (u *Unit) OutChannels() int { return u.OutShape[0] }

// NodeShapes returns the cached per-node output shapes of the unit's
// subgraph. The result must not be modified.
func (u *Unit) NodeShapes() [][]int { return u.shapes }

// NodeInShapes returns the cached shapes of a node's inputs within the unit:
// the unit's input for graph.InputID, the producing node's output otherwise.
// The result must not be modified.
func (u *Unit) NodeInShapes(node *graph.Node) [][]int { return u.inShapes[node.ID] }

// OutHeight returns the spatial height of the unit output, or 0 for
// non-spatial outputs.
func (u *Unit) OutHeight() int {
	if len(u.OutShape) == 3 {
		return u.OutShape[1]
	}
	return 0
}

// String renders a compact description.
func (u *Unit) String() string {
	return fmt.Sprintf("unit %d %q in=%v out=%v flops=%d params=%dB spatial=%v channel=%v",
		u.Index, u.Name, u.InShape, u.OutShape, u.FLOPs, u.ParamBytes, u.Spatial, u.Channel)
}

// Linearize converts a model graph into the unit chain Gillis partitions.
// It implements the paper's branch merging (parallel branches collapse into
// a single unit) and element-wise merging (ReLU/BatchNorm fuse into the
// preceding weighted unit).
//
// The algorithm finds "cut points": positions i such that every edge
// crossing the boundary after node i originates at node i — i.e. exactly
// one value is live. Segments between consecutive cut points become units;
// this collapses arbitrary series-parallel branch modules without
// special-casing block shapes.
func Linearize(g *graph.Graph) ([]*Unit, error) {
	n := g.Len()
	if n == 0 {
		return nil, fmt.Errorf("partition: empty graph")
	}
	shapes, err := g.Shapes()
	if err != nil {
		return nil, err
	}

	// maxConsumer[i] = largest node ID consuming node i's output.
	maxConsumer := make([]int, n)
	for i := range maxConsumer {
		maxConsumer[i] = -1
	}
	inputMaxConsumer := -1
	for _, node := range g.Nodes() {
		for _, in := range node.Inputs {
			if in == graph.InputID {
				if node.ID > inputMaxConsumer {
					inputMaxConsumer = node.ID
				}
				continue
			}
			if node.ID > maxConsumer[in] {
				maxConsumer[in] = node.ID
			}
		}
	}
	// Boundary after node i is a cut iff no earlier value (a node j < i or
	// the graph input) is consumed after i.
	cuts := make([]bool, n)
	maxSoFar := inputMaxConsumer // max consumer among {input, nodes 0..i-1}
	for i := 0; i < n; i++ {
		cuts[i] = maxSoFar <= i
		if maxConsumer[i] > maxSoFar {
			maxSoFar = maxConsumer[i]
		}
	}
	cuts[n-1] = true

	var units []*Unit
	segStart := 0
	for i := 0; i < n; i++ {
		if !cuts[i] {
			continue
		}
		u, err := buildUnit(g, shapes, segStart, i)
		if err != nil {
			return nil, err
		}
		units = append(units, u)
		segStart = i + 1
	}
	units = mergeElementwise(units)
	for i, u := range units {
		u.Index = i
	}
	return units, nil
}

// ModelName recovers the model's name from a unit chain: buildUnit names
// every unit sub-graph "<model>[i:j]".
func ModelName(units []*Unit) string {
	name := units[0].Sub.Name
	if i := strings.IndexByte(name, '['); i >= 0 {
		return name[:i]
	}
	return name
}

// buildUnit packages nodes [start, end] of g into a Unit.
func buildUnit(g *graph.Graph, shapes [][]int, start, end int) (*Unit, error) {
	var inShape []int
	if start == 0 {
		inShape = g.InShape()
	} else {
		inShape = shapes[start-1]
	}
	sub := graph.New(fmt.Sprintf("%s[%d:%d]", g.Name, start, end), inShape)
	for id := start; id <= end; id++ {
		node := g.Node(id)
		ins := make([]int, len(node.Inputs))
		for i, in := range node.Inputs {
			switch {
			case in == graph.InputID || in == start-1:
				ins[i] = graph.InputID
			case in >= start && in < id:
				ins[i] = in - start
			default:
				return nil, fmt.Errorf("partition: node %d input %d escapes segment [%d,%d]", id, in, start, end)
			}
		}
		if _, err := sub.Add(node.Op, ins...); err != nil {
			return nil, err
		}
	}
	return newUnit(g.Node(end).Op.Name(), sub)
}

// newUnit packages sub as a unit, its shapes cached and its FLOPs, weights
// and capabilities worked out.
func newUnit(name string, sub *graph.Graph) (*Unit, error) {
	shapes, err := sub.Shapes()
	if err != nil {
		return nil, err
	}
	u := &Unit{
		Name:       name,
		Sub:        sub,
		InShape:    sub.InShape(),
		OutShape:   shapes[sub.OutputID()],
		ParamBytes: sub.ParamBytes(),
		shapes:     shapes,
		inShapes:   make([][][]int, sub.Len()),
		nodeFLOPs:  make([]int64, sub.Len()),
	}
	for _, node := range sub.Nodes() {
		ins := make([][]int, len(node.Inputs))
		for i, in := range node.Inputs {
			if in == graph.InputID {
				ins[i] = u.InShape
			} else {
				ins[i] = shapes[in]
			}
		}
		u.inShapes[node.ID] = ins
		u.nodeFLOPs[node.ID] = node.Op.FLOPs(ins...)
		u.FLOPs += u.nodeFLOPs[node.ID]
	}
	u.windows = heightWindows(u)
	u.Spatial = u.windows != nil
	u.Channel = unitChannel(u)
	return u, nil
}

// window is a spatial op's height kernel, stride and padding.
type window struct{ k, s, p int }

// heightWindows returns every node's height window when all ops have a local
// height response and the boundary tensors are CHW feature maps — the unit
// is Spatial — and nil otherwise.
func heightWindows(u *Unit) []window {
	if len(u.InShape) != 3 || len(u.OutShape) != 3 {
		return nil
	}
	ws := make([]window, u.Sub.Len())
	for _, node := range u.Sub.Nodes() {
		sp, ok := node.Op.(nn.Spatial)
		if !ok {
			return nil
		}
		w := &ws[node.ID]
		w.k, w.s, w.p = sp.HKernel()
	}
	return ws
}

// unitChannel reports whether the unit is a single weighted op whose output
// channels split independently, optionally followed by fused per-channel
// element-wise ops.
func unitChannel(u *Unit) bool {
	nodes := u.Sub.Nodes()
	if len(nodes) == 0 {
		return false
	}
	switch nodes[0].Op.(type) {
	case *nn.Conv2D, *nn.Dense, *nn.DepthwiseConv2D:
	default:
		return false
	}
	if _, ok := nodes[0].Op.(nn.ChannelSliceable); !ok {
		return false
	}
	for _, node := range nodes[1:] {
		switch node.Op.(type) {
		case *nn.BatchNorm, *nn.ReLU:
			// per-channel element-wise: fine
		default:
			return false
		}
		if len(node.Inputs) != 1 || node.Inputs[0] != node.ID-1 {
			return false
		}
	}
	return true
}

// mergeElementwise fuses pure element-wise single-op units (ReLU,
// BatchNorm) into their predecessor (§III-C: "merge consecutive
// element-wise layers into the preceding weight-intensive layers").
func mergeElementwise(units []*Unit) []*Unit {
	var out []*Unit
	for _, u := range units {
		if len(out) > 0 && isElementwiseUnit(u) {
			prev := out[len(out)-1]
			merged, err := fuseUnits(prev, u)
			if err == nil {
				out[len(out)-1] = merged
				continue
			}
		}
		out = append(out, u)
	}
	return out
}

// isElementwiseUnit reports whether the unit is a single ReLU or BatchNorm.
func isElementwiseUnit(u *Unit) bool {
	if u.Sub.Len() != 1 {
		return false
	}
	switch u.Sub.Node(0).Op.(type) {
	case *nn.ReLU, *nn.BatchNorm:
		return true
	}
	return false
}

// fuseUnits appends b's ops to a, producing a combined unit.
func fuseUnits(a, b *Unit) (*Unit, error) {
	sub, err := Join([]*Unit{a, b})
	if err != nil {
		return nil, err
	}
	return newUnit(a.Name, sub)
}

// Join chains the units' sub-graphs into one graph: each unit reads its
// predecessor's output, the first reads the graph's input, and the last
// writes the graph's output. The ops are the units' own, weights and all, so
// the join costs no weight memory. A whole layer group runs as its join, one
// forward in one arena (§III-C: a group is what one function executes).
func Join(units []*Unit) (*graph.Graph, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: join of no units")
	}
	name := units[0].Sub.Name
	for _, u := range units[1:] {
		name += "+" + u.Name
	}
	g := graph.New(name, units[0].InShape)
	for i, u := range units {
		if i > 0 && !slices.Equal(u.InShape, units[i-1].OutShape) {
			return nil, fmt.Errorf("partition: unit %d (%s) takes %v, unit %d returns %v", u.Index, u.Name, u.InShape, units[i-1].Index, units[i-1].OutShape)
		}
		base := g.Len()
		for _, node := range u.Sub.Nodes() {
			ins := make([]int, len(node.Inputs))
			for j, in := range node.Inputs {
				if in == graph.InputID {
					ins[j] = base - 1 // InputID itself for the first unit
				} else {
					ins[j] = in + base
				}
			}
			if _, err := g.Add(node.Op, ins...); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}
