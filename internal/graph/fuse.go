package graph

import (
	"fmt"

	"gillis/internal/nn"
)

// Fuse rewrites a graph into its operator-fused form: BatchNorm and ReLU
// nodes that directly follow a weighted layer are absorbed into that layer's
// epilogue (the Scale, Shift and Relu fields of nn.Conv2D, the Relu of
// nn.Dense), and redundant element-wise chains collapse. Every rewrite
// is bitwise semantics-preserving — the fused graph produces identical
// outputs to the original at every parallelism level (the epilogue performs
// exactly the absorbed operators' arithmetic in the same per-element order)
// — but the planners see fewer nodes, fewer per-layer FLOPs (fused ReLUs
// ride the kernel pass for free), and smaller weight footprints (a folded
// BatchNorm ships two per-channel vectors instead of four).
//
// Rewrites applied, in decreasing priority:
//
//   - Conv2D + BatchNorm [+ ReLU]  →  Conv2D with Scale and Shift (the
//     folded affine) [and Relu]. The BatchNorm's frozen statistics must be
//     materialized, since folding evaluates gamma/sqrt(var+eps) at rewrite
//     time.
//   - Conv2D + ReLU                →  Conv2D with Relu.
//   - Dense + ReLU                 →  Dense with Relu.
//   - ReLU whose producer already ends in a ReLU (fused or standalone)
//     is dropped: relu∘relu = relu exactly.
//
// Only a layer with no epilogue yet absorbs anything, so fusing a fused
// graph again changes nothing. A node is absorbed only when the intermediate
// value has exactly one consumer, so no rewrite changes any observable
// tensor. Operators that are not rewritten are carried into the new graph by
// reference; a fused layer is a copy of the original that shares its W and
// B.
//
// Fuse returns the rewritten graph and the number of nodes eliminated
// (0 means the graph came back structurally identical).
func Fuse(g *Graph) (*Graph, int, error) {
	n := g.Len()
	if n == 0 {
		return nil, 0, fmt.Errorf("graph %q: empty", g.Name)
	}
	consumers, err := g.Consumers()
	if err != nil {
		return nil, 0, err
	}
	// soleConsumer returns the single node consuming id's output exactly
	// once, or nil.
	soleConsumer := func(id int) *Node {
		c := consumers[id]
		if len(c) != 1 {
			return nil
		}
		next := g.Node(c[0])
		if len(next.Inputs) != 1 || next.Inputs[0] != id {
			return nil
		}
		return next
	}

	out := New(g.Name, g.inShape)
	remap := make([]int, n)     // old node ID -> new node ID
	absorbed := make([]bool, n) // nodes folded into an earlier fused op
	eliminated := 0
	mapInputs := func(ins []int) []int {
		mapped := make([]int, len(ins))
		for i, in := range ins {
			if in == InputID {
				mapped[i] = InputID
			} else {
				mapped[i] = remap[in]
			}
		}
		return mapped
	}

	for _, node := range g.Nodes() {
		if absorbed[node.ID] {
			continue
		}
		var fused nn.Op
		var tail []*Node // nodes the fused op absorbs
		switch op := node.Op.(type) {
		case *nn.Conv2D:
			if op.BN || op.Relu {
				break
			}
			next := soleConsumer(node.ID)
			f := *op
			if bn, ok := opAs[*nn.BatchNorm](next); ok && bn.Initialized() && bn.C == op.OutC {
				if f.Scale, f.Shift, err = bn.Fold(); err != nil {
					return nil, 0, fmt.Errorf("graph %q: fuse node %d: %w", g.Name, node.ID, err)
				}
				f.BN = true
				tail = []*Node{next}
				next = soleConsumer(next.ID)
			}
			if _, ok := opAs[*nn.ReLU](next); ok {
				f.Relu = true
				tail = append(tail, next)
			}
			if tail != nil {
				fused = &f
			}
		case *nn.Dense:
			next := soleConsumer(node.ID)
			if _, ok := opAs[*nn.ReLU](next); ok && !op.Relu {
				f := *op
				f.Relu = true
				fused, tail = &f, []*Node{next}
			}
		case *nn.ReLU:
			// Collapse relu∘relu: if the producer's rewritten form already
			// ends in a ReLU, this node is the identity.
			if in := node.Inputs[0]; len(node.Inputs) == 1 && in != InputID {
				if endsInReLU(out.Node(remap[in]).Op) {
					remap[node.ID] = remap[in]
					eliminated++
					continue
				}
			}
		}
		toAdd := node.Op
		if fused != nil {
			toAdd = fused
		}
		id, err := out.Add(toAdd, mapInputs(node.Inputs)...)
		if err != nil {
			return nil, 0, fmt.Errorf("graph %q: rebuild node %d: %w", g.Name, node.ID, err)
		}
		remap[node.ID] = id
		for _, t := range tail {
			absorbed[t.ID] = true
			remap[t.ID] = id
			eliminated++
		}
	}
	if err := out.Validate(); err != nil {
		return nil, 0, fmt.Errorf("graph %q: fused graph invalid: %w", g.Name, err)
	}
	return out, eliminated, nil
}

// opAs returns node's op as T when node is non-nil and the op has that type.
func opAs[T nn.Op](node *Node) (T, bool) {
	var zero T
	if node == nil {
		return zero, false
	}
	op, ok := node.Op.(T)
	return op, ok
}

// endsInReLU reports whether op's output is already rectified, making a
// following ReLU the identity.
func endsInReLU(op nn.Op) bool {
	switch o := op.(type) {
	case *nn.ReLU:
		return true
	case *nn.Conv2D:
		return o.Relu
	case *nn.Dense:
		return o.Relu
	}
	return false
}
