// Package graph defines the model intermediate representation Gillis
// partitions: a DAG of nn operators with a single input and a single output.
// It plays the role the ONNX compute graph plays in the original system.
package graph

import (
	"fmt"
	"math/rand"
	"strings"
	"sync/atomic"

	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// InputID is the pseudo node ID that refers to the graph's input tensor.
const InputID = -1

// Node is one operator application in a graph.
type Node struct {
	ID     int
	Op     nn.Op
	Inputs []int // producer node IDs; InputID refers to the graph input
}

// Graph is a single-input DAG of operators. Nodes are stored in topological
// order (a node's inputs always precede it); the last node is the output.
type Graph struct {
	Name    string
	inShape []int
	nodes   []*Node
	// arena caches the liveness plan forwards run by (arena.go); Add drops
	// it. Atomic because a loaded graph is shared: every gillis-server
	// request goroutine forwards through the same one in its own Env.
	arena atomic.Pointer[arenaPlan]
}

// New creates an empty graph with the given input shape.
func New(name string, inShape []int) *Graph {
	s := make([]int, len(inShape))
	copy(s, inShape)
	return &Graph{Name: name, inShape: s}
}

// InShape returns a copy of the graph's input shape.
func (g *Graph) InShape() []int {
	s := make([]int, len(g.inShape))
	copy(s, g.inShape)
	return s
}

// Len returns the number of nodes.
func (g *Graph) Len() int { return len(g.nodes) }

// Node returns the node with the given ID.
func (g *Graph) Node(id int) *Node { return g.nodes[id] }

// Nodes returns the graph's nodes in topological order. The returned slice
// must not be modified.
func (g *Graph) Nodes() []*Node { return g.nodes }

// Add appends an operator whose inputs are the given node IDs. With no
// inputs it consumes the most recent node (or the graph input for the first
// node). It returns the new node's ID.
func (g *Graph) Add(op nn.Op, inputs ...int) (int, error) {
	if op == nil {
		return 0, fmt.Errorf("graph: nil op")
	}
	if len(inputs) == 0 {
		inputs = []int{len(g.nodes) - 1} // previous node; -1 == InputID for the first
	}
	id := len(g.nodes)
	ins := make([]int, len(inputs))
	for i, in := range inputs {
		if in < InputID || in >= id {
			return 0, fmt.Errorf("graph: node %q input %d out of range (have %d nodes)", op.Name(), in, id)
		}
		ins[i] = in
	}
	g.nodes = append(g.nodes, &Node{ID: id, Op: op, Inputs: ins})
	g.arena.Store(nil)
	return id, nil
}

// MustAdd is Add for statically known-good model builders; it panics on
// error.
func (g *Graph) MustAdd(op nn.Op, inputs ...int) int {
	id, err := g.Add(op, inputs...)
	if err != nil {
		panic(err)
	}
	return id
}

// OutputID returns the ID of the output node.
func (g *Graph) OutputID() int { return len(g.nodes) - 1 }

// Shapes computes every node's output shape. Index i holds node i's shape.
func (g *Graph) Shapes() ([][]int, error) {
	if len(g.nodes) == 0 {
		return nil, fmt.Errorf("graph %q: empty", g.Name)
	}
	shapes := make([][]int, len(g.nodes))
	for _, n := range g.nodes {
		ins := make([][]int, len(n.Inputs))
		for i, in := range n.Inputs {
			if in == InputID {
				ins[i] = g.inShape
			} else {
				ins[i] = shapes[in]
			}
		}
		s, err := n.Op.OutShape(ins...)
		if err != nil {
			return nil, fmt.Errorf("graph %q node %d (%s): %w", g.Name, n.ID, n.Op.Name(), err)
		}
		shapes[n.ID] = s
	}
	return shapes, nil
}

// OutShape returns the output node's shape.
func (g *Graph) OutShape() ([]int, error) {
	shapes, err := g.Shapes()
	if err != nil {
		return nil, err
	}
	return shapes[g.OutputID()], nil
}

// Validate checks that the graph is well-formed and shape-consistent.
func (g *Graph) Validate() error {
	seen := make(map[string]bool, len(g.nodes))
	for _, n := range g.nodes {
		if seen[n.Op.Name()] {
			return fmt.Errorf("graph %q: duplicate op name %q", g.Name, n.Op.Name())
		}
		seen[n.Op.Name()] = true
	}
	_, err := g.Shapes()
	return err
}

// Forward runs the whole graph on the given input. All weighted operators
// must be initialized. It is the batch-of-one call of ForwardBatch
// (arena.go).
func (g *Graph) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	outs, err := g.ForwardBatch([]*tensor.Tensor{x}, nil)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// Init materializes every weighted operator deterministically from the seed.
func (g *Graph) Init(seed int64) {
	rng := rand.New(rand.NewSource(seed))
	for _, n := range g.nodes {
		n.Op.Init(rng)
	}
}

// Initialized reports whether every operator has weights.
func (g *Graph) Initialized() bool {
	for _, n := range g.nodes {
		if !n.Op.Initialized() {
			return false
		}
	}
	return true
}

// ParamCount returns the total number of stored fp32 scalars.
func (g *Graph) ParamCount() int64 {
	var total int64
	for _, n := range g.nodes {
		total += n.Op.ParamCount()
	}
	return total
}

// ParamBytes returns the total weight footprint in bytes.
func (g *Graph) ParamBytes() int64 { return g.ParamCount() * 4 }

// FLOPs returns the total forward FLOPs of the graph.
func (g *Graph) FLOPs() (int64, error) {
	shapes, err := g.Shapes()
	if err != nil {
		return 0, err
	}
	var total int64
	for _, n := range g.nodes {
		ins := make([][]int, len(n.Inputs))
		for i, in := range n.Inputs {
			if in == InputID {
				ins[i] = g.inShape
			} else {
				ins[i] = shapes[in]
			}
		}
		total += n.Op.FLOPs(ins...)
	}
	return total, nil
}

// Consumers returns, for each node ID, the IDs of the nodes consuming it.
// Index len(nodes) is unused; InputID consumers are under key -1 of the
// second return value.
func (g *Graph) Consumers() (map[int][]int, error) {
	if len(g.nodes) == 0 {
		return nil, fmt.Errorf("graph %q: empty", g.Name)
	}
	out := make(map[int][]int)
	for _, n := range g.nodes {
		for _, in := range n.Inputs {
			out[in] = append(out[in], n.ID)
		}
	}
	return out, nil
}

// String renders a human-readable summary.
func (g *Graph) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "graph %q in=%v nodes=%d", g.Name, g.inShape, len(g.nodes))
	return sb.String()
}
