package partition

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/tensor"
)

// spatialGroups returns initialized spatial unit groups to partition: the
// tiny CNN plain and fused (every spatial operator kind, a residual diamond,
// windows that overhang both borders), MobileNet's depthwise stack and
// Inception's concatenated branches, and — where the run can afford it —
// units 0..6 of the fused resnet34, the group gillis-server's plan splits four
// ways.
func spatialGroups(t *testing.T) map[string][]*Unit {
	t.Helper()
	groups := map[string][]*Unit{"tinycnn": tinyGroup(t, false), "tinycnn-fused": tinyGroup(t, true)}
	names := []string{"mobilenet-mini", "inception-mini"}
	if !testing.Short() {
		names = append(names, "resnet34")
	}
	for _, name := range names {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		groups[name] = spatialPrefix(t, g, true, 7)
	}
	return groups
}

// tinyGroup is the tiny CNN's unit chain, initialized, plain or fused.
func tinyGroup(t *testing.T, fuse bool) []*Unit {
	return spatialPrefix(t, tinyCNN(t), fuse, math.MaxInt)
}

// spatialPrefix initializes g, fuses it if asked to, and returns its leading
// spatial units, at most limit of them.
func spatialPrefix(t *testing.T, g *graph.Graph, fuse bool, limit int) []*Unit {
	t.Helper()
	g.Init(21)
	if fuse {
		var err error
		if g, _, err = graph.Fuse(g); err != nil {
			t.Fatal(err)
		}
	}
	units := linearized(t, g)
	n := 0
	for n < min(len(units), limit) && units[n].Spatial {
		n++
	}
	if n == 0 {
		t.Fatalf("%s: no spatial units", g.Name)
	}
	return units[:n]
}

// TestSpatialPartGraphsMatchMonolithic: every part of every group runs as
// its graph (PartSlice.Graph): a batch of three (resnet34: one), every node
// over the whole batch before the next, returns each query's rows of the
// monolithic output bit for bit, and so does the first query's forward on its
// own. That a part graph takes exactly its ArenaBytes — in a NaN-filled arena
// of that size, reading nothing before it is written — is graph's
// TestArenaForwardOnSpatialParts.
func TestSpatialPartGraphsMatchMonolithic(t *testing.T) {
	for name, units := range spatialGroups(t) {
		rng := rand.New(rand.NewSource(4))
		xs := make([]*tensor.Tensor, 3)
		if name == "resnet34" {
			xs = xs[:1] // a forward costs a second on a slow kernel
		}
		wants := make([]*tensor.Tensor, len(xs))
		for e := range xs {
			xs[e] = tensor.Rand(rng, 1, units[0].InShape...)
			var err error
			if wants[e], err = ForwardChain(units, xs[e]); err != nil {
				t.Fatal(err)
			}
		}
		for _, parts := range []int{1, 2, 3, 4} {
			slices, err := SpatialSlices(units, parts)
			if err != nil {
				t.Fatal(err)
			}
			for i, ps := range slices {
				g, err := ps.Graph(units)
				if err != nil {
					t.Fatal(err)
				}
				outs, err := g.ForwardBatch(xs, nil)
				if err != nil {
					t.Fatalf("%s part %d/%d: %v", name, i, parts, err)
				}
				for e, out := range outs {
					if !tensor.Equal(out, heightRows(wants[e], ps.OutRows.Lo, ps.OutRows.Hi)) {
						t.Errorf("%s part %d/%d: query %d of %d differs from rows %v of the monolithic output", name, i, parts, e, len(outs), ps.OutRows)
					}
				}
				if one, err := g.Forward(xs[0]); err != nil || !tensor.Equal(one, outs[0]) {
					t.Errorf("%s part %d/%d: a forward of query 0 alone differs from the batch's (%v)", name, i, parts, err)
				}
			}
		}
	}
}

// TestSlicesGraphs: the graphs a group's partitions run (Slices.Graphs) —
// one Join for a whole group, a lowered part per spatial slice, a sliced
// sub-graph per channel slice — reassemble the unit-by-unit forward bit for
// bit, and an unknown dimension is an error.
func TestSlicesGraphs(t *testing.T) {
	units := tinyGroup(t, false)
	x := tensor.Rand(rand.New(rand.NewSource(8)), 1, units[0].InShape...)
	last := len(units) - 1
	for _, tc := range []struct {
		last int
		opt  Option
		dim  int // of the group output the partitions' outputs join along
	}{
		{last, Option{DimNone, 1}, 0},
		{last, Option{DimSpatial, 3}, 1},
		{0, Option{DimChannel, 2}, 0},
	} {
		group := units[:tc.last+1]
		want, err := ForwardChain(group, x)
		if err != nil {
			t.Fatal(err)
		}
		_, sl, err := GroupSlices(units, 0, tc.last, tc.opt)
		if err != nil {
			t.Fatal(err)
		}
		gs, err := sl.Graphs(group, tc.opt)
		if err != nil || len(gs) != tc.opt.Parts {
			t.Fatalf("%v: %d graphs (%v), want %d", tc.opt, len(gs), err, tc.opt.Parts)
		}
		outs := make([]*tensor.Tensor, len(gs))
		for i, g := range gs {
			if outs[i], err = g.Forward(x); err != nil {
				t.Fatalf("%v part %d: %v", tc.opt, i, err)
			}
		}
		got := tensor.New(want.Shape()...)
		if err := tensor.ConcatDim(got, tc.dim, outs...); err != nil || !tensor.Equal(got, want) {
			t.Errorf("%v: the partitions' outputs do not join to the unit-by-unit forward (%v)", tc.opt, err)
		}
	}
	if _, err := (Slices{}).Graphs(units, Option{Dim(9), 2}); err == nil {
		t.Error("an unknown dimension gave graphs")
	}
}

// TestJoinRejectsMismatchedUnits: units that do not chain, or none at all,
// are an error, not a graph.
func TestJoinRejectsMismatchedUnits(t *testing.T) {
	units := tinyGroup(t, false)
	if _, err := Join(nil); err == nil {
		t.Error("a join of no units accepted")
	}
	if _, err := Join([]*Unit{units[0], units[2]}); err == nil {
		t.Errorf("unit 2 (takes %v) accepted after unit 0 (returns %v)", units[2].InShape, units[0].OutShape)
	}
}

// TestChainAllocationBudget: the forward of a whole group's join — the fused
// tiny CNN's unit chain — allocates its output, a tensor header per node and
// a few slices, and no node output: the byte budget has less slack than the
// smallest of those is big, so a tensor.New back on the path breaks it. One
// worker, so par.For spawns nothing; the minimum of several runs, so a
// collection that empties the pool between two of them does not count.
func TestChainAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	units := tinyGroup(t, true)
	g, err := Join(units)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := g.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	smallest := int64(math.MaxInt64)
	for _, s := range shapes[:len(shapes)-1] {
		smallest = min(smallest, tensor.SizeBytes(s))
	}
	x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
	defer par.SetParallelism(1)()
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var out *tensor.Tensor
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		if out, err = g.Forward(x); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d units, %d nodes, node outputs of at least %d B: %d B in %d objects per forward, result %d B",
		len(units), g.Len(), smallest, bytes, objects, out.Bytes())
	// A header and some kernel bookkeeping per node, the forward's own slices,
	// and less slack than the smallest node output is big.
	maxBytes, maxObjects := uint64(out.Bytes())+uint64(256*g.Len()+512), uint64(4*g.Len()+8)
	if bytes > maxBytes || objects > maxObjects || maxBytes-bytes >= uint64(smallest) {
		t.Errorf("a joined chain of %d nodes allocates %d B in %d objects, budget %d B in %d",
			g.Len(), bytes, objects, maxBytes, maxObjects)
	}
}

// TestPartGraphRejectsMismatches: a slice lowered for other units, a zero
// slice, or a part graph handed its own rows of the input instead of the
// whole of it is an error, not a wrong answer.
func TestPartGraphRejectsMismatches(t *testing.T) {
	units := tinyGroup(t, false)
	slices, err := SpatialSlices(units, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := slices[0].Graph(units[:1]); err == nil {
		t.Error("a slice built for the whole group accepted for its first unit")
	}
	if _, err := slices[0].Graph(tinyGroup(t, true)); err == nil {
		t.Error("a slice built for the plain tiny CNN accepted for the fused one")
	}
	if _, err := (PartSlice{}).Graph(units); err == nil {
		t.Error("a zero PartSlice accepted")
	}
	g, err := slices[0].Graph(units)
	if err != nil {
		t.Fatal(err)
	}
	in := units[0].InShape
	slab := tensor.Rand(rand.New(rand.NewSource(4)), 1, in[0], slices[0].InRows.Len(), in[2])
	if _, err := g.Forward(slab); err == nil {
		t.Error("part 0's rows of the input accepted as the whole input")
	}
	win, ok := g.Node(0).Op.(*nn.RowWindow)
	if !ok {
		t.Fatalf("part 0's first node is %T, not the window that cuts its rows", g.Node(0).Op)
	}
	if _, err := win.OutShape(slab.Shape()); err == nil {
		t.Error("part 0's input window accepted the shape of its rows alone")
	}
	if _, err := win.Forward(slab); err == nil {
		t.Error("part 0's input window accepted its rows alone")
	}
	if _, err := win.Forward(); err == nil {
		t.Error("part 0's input window accepted no input")
	}
}

// TestPartGraphRunsPlainOps: every node of every part graph is one of three
// things — a unit's own op; its copy with ValidH set, which differs from it in
// nothing else and so shares its weights; or a row window (nn.RowWindow)
// whose one reader is the next node that is not a window.
func TestPartGraphRunsPlainOps(t *testing.T) {
	for name, units := range spatialGroups(t) {
		ops := make(map[string]nn.Op)
		for _, u := range units {
			for _, n := range u.Sub.Nodes() {
				ops[n.Op.Name()] = n.Op
			}
		}
		windows, copies := 0, 0
		for _, parts := range []int{1, 2, 3, 4} {
			slices, err := SpatialSlices(units, parts)
			if err != nil {
				t.Fatal(err)
			}
			for i, ps := range slices {
				g, err := ps.Graph(units)
				if err != nil {
					t.Fatal(err)
				}
				what := fmt.Sprintf("%s part %d/%d", name, i, parts)
				readers, err := g.Consumers()
				if err != nil {
					t.Fatal(err)
				}
				for _, n := range g.Nodes() {
					if _, ok := n.Op.(*nn.RowWindow); ok {
						next := n.ID + 1
						for next < g.Len() && isWindow(g.Node(next).Op) {
							next++
						}
						if r := readers[n.ID]; len(r) != 1 || r[0] != next {
							t.Errorf("%s: window %s is read by %v, not by node %d", what, n.Op.Name(), r, next)
						}
						windows++
						continue
					}
					orig := ops[n.Op.Name()]
					if !sameOrValidH(n.Op, orig) {
						t.Errorf("%s: node %s (%T) is neither its unit's op nor a ValidH copy of it", what, n.Op.Name(), n.Op)
					}
					if n.Op != orig {
						copies++
					}
				}
			}
		}
		if windows == 0 || copies == 0 {
			t.Errorf("%s: %d windows and %d ValidH copies in its parts", name, windows, copies)
		}
	}
}

func isWindow(op nn.Op) bool {
	_, ok := op.(*nn.RowWindow)
	return ok
}

// sameOrValidH reports whether op is orig, or a copy of it with ValidH set
// that shares its weight storage.
func sameOrValidH(op, orig nn.Op) bool {
	if op == orig {
		return true
	}
	switch o := op.(type) {
	case *nn.Conv2D:
		c, ok := orig.(*nn.Conv2D)
		plain := *o
		plain.ValidH = false
		return ok && o.ValidH && !c.ValidH && plain == *c && &o.W.Data()[0] == &c.W.Data()[0]
	case *nn.DepthwiseConv2D:
		d, ok := orig.(*nn.DepthwiseConv2D)
		plain := *o
		plain.ValidH = false
		return ok && o.ValidH && !d.ValidH && plain == *d && &o.W.Data()[0] == &d.W.Data()[0]
	case *nn.MaxPool2D:
		m, ok := orig.(*nn.MaxPool2D)
		plain := *o
		plain.ValidH = false
		return ok && o.ValidH && !m.ValidH && plain == *m
	}
	return false
}

// TestPartGraphNodesStandAlone: walking a part graph node by node, each
// node's own Forward returns the graph forward's bits, and the nodes' FLOPs
// add up to the part's.
func TestPartGraphNodesStandAlone(t *testing.T) {
	for _, fuse := range []bool{false, true} {
		units := tinyGroup(t, fuse)
		x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
		slices, err := SpatialSlices(units, 3)
		if err != nil {
			t.Fatal(err)
		}
		for i, ps := range slices {
			g, err := ps.Graph(units)
			if err != nil {
				t.Fatal(err)
			}
			want, err := g.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			vals := make([]*tensor.Tensor, g.Len())
			for _, n := range g.Nodes() {
				ins := make([]*tensor.Tensor, len(n.Inputs))
				for j, in := range n.Inputs {
					if ins[j] = x; in != graph.InputID {
						ins[j] = vals[in]
					}
				}
				if vals[n.ID], err = n.Op.Forward(ins...); err != nil {
					t.Fatalf("fused=%v part %d node %s: %v", fuse, i, n.Op.Name(), err)
				}
			}
			if !tensor.Equal(vals[g.OutputID()], want) {
				t.Errorf("fused=%v part %d: node by node differs from the graph's forward", fuse, i)
			}
			if flops, err := g.FLOPs(); err != nil || flops != ps.FLOPs {
				t.Errorf("fused=%v part %d: nodes' FLOPs %d (%v), the part's %d", fuse, i, flops, err, ps.FLOPs)
			}
		}
	}
}

// TestSpatialPartAllocationBudget: one part of the fused tiny CNN allocates
// its result, a tensor header per node (windows among them) and two slices —
// no activation and no window: the byte budget has less slack than the smallest
// of those is big, so a tensor.New back on the path breaks it. One worker, so par.For
// spawns nothing; the minimum of several runs, so a collection that empties
// the pool between two of them does not count.
func TestSpatialPartAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	units := tinyGroup(t, true)
	slices, err := SpatialSlices(units, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
	g, err := slices[1].Graph(units)
	if err != nil {
		t.Fatal(err)
	}
	shapes, err := g.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	buffers, windows, smallest := 0, 0, math.MaxInt
	for _, n := range g.Nodes() {
		buffers, smallest = buffers+1, min(smallest, int(tensor.SizeBytes(shapes[n.ID])))
		if _, ok := n.Op.(*nn.RowWindow); ok {
			windows++
		}
	}
	defer par.SetParallelism(1)()
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var out *tensor.Tensor
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		if out, err = g.Forward(x); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d nodes, %d buffers of at least %d B: %d B in %d objects per part, result %d B",
		g.Len(), buffers, smallest, bytes, objects, out.Bytes())
	// A header and some kernel bookkeeping per buffer, and less slack than
	// the smallest buffer is big.
	maxBytes, maxObjects := uint64(out.Bytes())+uint64(256*buffers), uint64(5*(g.Len()-windows)+buffers+8)
	if bytes > maxBytes || objects > maxObjects || maxBytes-bytes >= uint64(smallest) {
		t.Errorf("a part of %d nodes and %d buffers allocates %d B in %d objects, budget %d B in %d",
			g.Len(), buffers, bytes, objects, maxBytes, maxObjects)
	}
}
