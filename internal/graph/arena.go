package graph

import (
	"fmt"
	"sort"

	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// A forward runs in one activation arena. Shapes are static, so where every
// node output lives is worked out once per graph, from the shapes and from
// who consumes what: an output is written at its node's step and dead after
// the step of its last consumer, and two outputs share arena floats only if
// one is dead before the other is written. ForwardBatch then takes
// plan-size × batch floats from par's scratch pool, runs every operator's
// destination-taking forward into its slot and gives the arena back; a
// resnet34 forward that used to allocate and zero 27 MB of node outputs runs
// in the 2–3 MB that are ever live at once, and the same 2–3 MB serve the next
// forward, still warm. Arena memory is not zeroed: the operators overwrite
// every element of a destination (nn's contract). An operator that needs work
// space besides its destination (a Scratcher) gets arena floats too, live
// during its own step only.
//
// What leaves the forward does not live there: the output node writes into
// a tensor of its own, so a reply that a hedged or abandoned invocation still
// holds is never overwritten by the next forward.

// buffer is one buffer of a straight-line program: Size floats, written at
// step Def and read for the last time at step Last >= Def.
type buffer struct {
	Size, Def, Last int
}

// layout places buffers in one arena so that two whose lifetimes overlap
// share no float: buffer i goes at offs[i], and size is the arena's length in
// floats. Buffers are placed largest first (ties in the order given), each in
// the smallest gap that holds it among the already placed buffers live at
// some step it is, or past the last of them if none does — the offline
// greedy-by-size heuristic, which keeps the arena at the peak live set on
// chains and residual blocks and within a few percent of it elsewhere.
func layout(bufs []buffer) (offs []int, size int) {
	offs = make([]int, len(bufs))
	order := make([]int, len(bufs))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return bufs[order[a]].Size > bufs[order[b]].Size })
	var placed []int // buffers placed so far, in ascending offset
	for _, i := range order {
		b := bufs[i]
		at, fit, end := 0, -1, 0 // the gap chosen so far is fit floats wide; end is where live buffers stop
		for _, j := range placed {
			if o := bufs[j]; o.Last < b.Def || b.Last < o.Def {
				continue
			}
			if gap := offs[j] - end; gap >= b.Size && (fit < 0 || gap < fit) {
				at, fit = end, gap
			}
			end = max(end, offs[j]+bufs[j].Size)
		}
		if fit < 0 {
			at = end
		}
		offs[i] = at
		pos := sort.Search(len(placed), func(p int) bool { return offs[placed[p]] > at })
		placed = append(placed, 0)
		copy(placed[pos+1:], placed[pos:])
		placed[pos] = i
		size = max(size, at+b.Size)
	}
	return offs, size
}

// Where a node's output lives, other than at an arena offset.
const (
	slotOwned = -1 - iota // the graph output: the destination the caller passes
	slotAlias             // a view of the node's input (nn.Aliaser)
)

// arenaPlan is the liveness plan of one graph.
type arenaPlan struct {
	shapes [][]int // node output shapes
	elems  []int   // their element counts
	slot   []int   // per node: offset in one query's arena, in floats, or slotOwned/slotAlias
	work   []int   // per node: offset of its work space if it is a Scratcher, or -1
	size   int     // floats one query's arena holds
	maxIn  int     // most inputs any node takes
}

// plan returns the graph's liveness plan, computing it on first use. Two
// first forwards racing both compute it and agree.
func (g *Graph) plan() (*arenaPlan, error) {
	if p := g.arena.Load(); p != nil {
		return p, nil
	}
	shapes, err := g.Shapes()
	if err != nil {
		return nil, err
	}
	n := len(g.nodes)
	p := &arenaPlan{shapes: shapes, elems: make([]int, n), slot: make([]int, n), work: make([]int, n)}
	// last[i] is the step of node i's last reader. A consumer that only
	// re-views its input (Flatten, TakeLast) reads nothing itself but hands
	// the floats on, so it extends the input's life to its own last reader;
	// consumers have higher IDs, so a descending walk has their answer ready.
	last := make([]int, n)
	for id := n - 1; id >= 0; id-- {
		node := g.nodes[id]
		if p.elems[id], err = tensor.NumElements(shapes[id]); err != nil {
			return nil, fmt.Errorf("graph %q node %d (%s): %w", g.Name, id, node.Op.Name(), err)
		}
		p.maxIn = max(p.maxIn, len(node.Inputs))
		last[id] = max(last[id], id)
		reader := id
		if _, ok := node.Op.(nn.Aliaser); ok && id != g.OutputID() && len(node.Inputs) == 1 {
			p.slot[id] = slotAlias
			reader = last[id]
		}
		for _, in := range node.Inputs {
			if in != InputID {
				last[in] = max(last[in], reader)
			}
		}
	}
	p.slot[g.OutputID()] = slotOwned
	// A node's work space is live during its own step only; it goes before
	// the node's output, so the two are laid out in the order they are cut
	// and written.
	var bufs []buffer
	var at []*int // bufs[i] is laid out at *at[i]
	for id, node := range g.nodes {
		p.work[id] = -1
		if sc, ok := node.Op.(Scratcher); ok {
			p.work[id] = 0 // an empty stretch, unless it takes work space
			if n := sc.ScratchFloats(); n > 0 {
				bufs = append(bufs, buffer{Size: n, Def: id, Last: id})
				at = append(at, &p.work[id])
			}
		}
		if p.slot[id] >= 0 {
			bufs = append(bufs, buffer{Size: p.elems[id], Def: id, Last: last[id]})
			at = append(at, &p.slot[id])
		}
	}
	offs, size := layout(bufs)
	for i, off := range offs {
		*at[i] = off
	}
	p.size = size
	g.arena.Store(p)
	return p, nil
}

// ArenaBytes is the size of the activation arena one query's forward runs
// in: the most bytes of node outputs the liveness plan ever holds at once,
// the graph's input and output (which the caller owns) not among them. A
// batch of n takes n times as much.
func (g *Graph) ArenaBytes() (int64, error) {
	p, err := g.plan()
	if err != nil {
		return 0, err
	}
	return int64(p.size) * 4, nil
}

// Scratcher is implemented by operators that need work space besides their
// destination while they run. The liveness plan gives such a node
// ScratchFloats floats of the arena, live during the node's own step only, and
// a forward runs it once per query through ForwardScratchInto.
type Scratcher interface {
	nn.Op
	// ScratchFloats is how many floats of work space one application takes.
	ScratchFloats() int
	// ForwardScratchInto is ForwardInto with work space: scratch holds
	// ScratchFloats floats, which may hold anything on entry. in is the
	// caller's list for this one application, which the operator may
	// overwrite (a forward builds a fresh one for every node and query).
	ForwardScratchInto(dst *tensor.Tensor, scratch []float32, in ...*tensor.Tensor) error
}

// Observer is told of every operator application immediately before it
// executes: the tracing runtime passes one to a Real-mode forward to
// attribute per-operator kernel events to the enclosing compute span. It is
// an argument of the forward, not a process-wide hook, so forwards running
// on different goroutines never see each other's; nil turns it off.
type Observer func(op nn.Op)

// ForwardBatch executes the graph once per query with cross-query batched
// kernels: each node runs nn.ForwardBatchInto over the whole batch (a
// Scratcher its ForwardScratchInto once per query) before the walk advances,
// so batch-aware operators amortize their packing and weight traffic across
// queries. The result is bitwise identical to calling
// Forward once per input — the batched kernels run the exact per-element
// accumulation schedules (see internal/nn/batch.go) and obs is notified once
// per (node, query), matching the sequential loop. It is forwardBatchIn in
// an arena from par's scratch pool, into outputs of its own.
func (g *Graph) ForwardBatch(xs []*tensor.Tensor, obs Observer) ([]*tensor.Tensor, error) {
	p, err := g.plan()
	if err != nil || len(xs) == 0 {
		return nil, err
	}
	outs := make([]*tensor.Tensor, len(xs))
	for e := range outs {
		outs[e] = tensor.New(p.shapes[g.OutputID()]...)
	}
	arena := par.GetF32(p.size * len(xs))
	defer par.PutF32(arena)
	if err := g.forwardBatchIn(*arena, xs, outs, obs); err != nil {
		return nil, err
	}
	return outs, nil
}

// forwardBatchIn is ForwardBatch in the caller's arena, which must hold
// ArenaBytes for every query and may hold anything, writing query e's output
// into outs[e], which the caller supplies in the output shape: query e runs in
// its own stretch of the arena, and nothing but outs is written outside it.
func (g *Graph) forwardBatchIn(arena []float32, xs, outs []*tensor.Tensor, obs Observer) error {
	if len(g.nodes) == 0 {
		return fmt.Errorf("graph %q: empty", g.Name)
	}
	if len(outs) != len(xs) {
		return fmt.Errorf("graph %q: %d outputs for %d queries", g.Name, len(outs), len(xs))
	}
	if len(xs) == 0 {
		return nil
	}
	p, err := g.plan()
	if err != nil {
		return err
	}
	for e := range xs {
		if !xs[e].HasShape(g.inShape) {
			return fmt.Errorf("graph %q: input shape %v, want %v", g.Name, xs[e].Shape(), g.inShape)
		}
		if !outs[e].HasShape(p.shapes[g.OutputID()]) {
			return fmt.Errorf("graph %q: output shape %v, want %v", g.Name, outs[e].Shape(), p.shapes[g.OutputID()])
		}
	}
	if len(arena) < p.size*len(xs) {
		return fmt.Errorf("graph %q: arena of %d floats, %d queries need %d each", g.Name, len(arena), len(xs), p.size)
	}
	batch := len(xs)
	// vals[id*batch+e] is node id's output for query e. It dies with this
	// call: it points into the arena, and outs must not.
	vals := make([]*tensor.Tensor, len(g.nodes)*batch)
	ins := make([][]*tensor.Tensor, batch)
	row := make([]*tensor.Tensor, batch*p.maxIn)
	for _, n := range g.nodes {
		dsts := vals[n.ID*batch : (n.ID+1)*batch]
		slot := p.slot[n.ID]
		for e := range xs {
			ins[e] = row[e*len(n.Inputs) : (e+1)*len(n.Inputs)]
			for i, in := range n.Inputs {
				if in == InputID {
					ins[e][i] = xs[e]
				} else {
					ins[e][i] = vals[in*batch+e]
				}
			}
			if obs != nil {
				obs(n.Op)
			}
			var err error
			switch slot {
			case slotOwned:
				dsts[e] = outs[e]
			case slotAlias:
				dsts[e], err = n.Op.(nn.Aliaser).Alias(ins[e][0])
			default:
				at, end := e*p.size+slot, e*p.size+slot+p.elems[n.ID]
				dsts[e], err = tensor.FromData(arena[at:end:end], p.shapes[n.ID]...)
			}
			if err != nil {
				return fmt.Errorf("graph %q node %d (%s): %w", g.Name, n.ID, n.Op.Name(), err)
			}
		}
		var err error
		switch work := p.work[n.ID]; {
		case slot == slotAlias:
		case work >= 0:
			sc := n.Op.(Scratcher)
			for e := range xs {
				at, end := e*p.size+work, e*p.size+work+sc.ScratchFloats()
				if err = sc.ForwardScratchInto(dsts[e], arena[at:end:end], ins[e]...); err != nil {
					break
				}
			}
		default:
			err = nn.ForwardBatchInto(n.Op, dsts, ins)
		}
		if err != nil {
			return fmt.Errorf("graph %q node %d (%s): %w", g.Name, n.ID, n.Op.Name(), err)
		}
	}
	return nil
}
