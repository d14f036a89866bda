package partition

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
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

// TestSpatialPartArenaIsWhatItTakes: every part of every group, run in an
// arena of exactly PartSlice.ArenaBytes — capacity included — that is full of
// NaNs, returns its rows of the monolithic output bit for bit, and writes the
// arena's last float. So the predicted size is what a part takes, no window
// or node output is read before it is written, and a border of zeros is
// filled, not assumed.
func TestSpatialPartArenaIsWhatItTakes(t *testing.T) {
	poison := math.Float32frombits(0x7fa5a5a5)
	for name, units := range spatialGroups(t) {
		x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
		want, err := ForwardChain(units, x)
		if err != nil {
			t.Fatal(err)
		}
		for _, parts := range []int{1, 2, 3, 4} {
			slices, err := SpatialSlices(units, parts)
			if err != nil {
				t.Fatal(err)
			}
			var most int64
			for i, ps := range slices {
				bytes, err := ps.ArenaBytes(units)
				if err != nil {
					t.Fatal(err)
				}
				most = max(most, bytes)
				prog, err := ps.program(units)
				if err != nil {
					t.Fatal(err)
				}
				arena := make([]float32, bytes/4)
				for j := range arena {
					arena[j] = poison
				}
				slab, err := InputSlab(x, ps)
				if err != nil {
					t.Fatal(err)
				}
				got, err := prog.run(units, arena, slab, nil)
				if err != nil {
					t.Fatalf("%s part %d/%d: %v", name, i, parts, err)
				}
				rows, err := want.SliceDim(1, ps.OutRows.Lo, ps.OutRows.Hi)
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.Equal(got, rows) {
					t.Errorf("%s part %d/%d: differs from rows %v of the monolithic output", name, i, parts, ps.OutRows)
				}
				if n := len(arena); n > 0 && math.Float32bits(arena[n-1]) == math.Float32bits(poison) {
					t.Errorf("%s part %d/%d: never wrote the last float of its %d-float arena", name, i, parts, n)
				}
				pooled, err := ExecSpatialPart(units, ps, slab, nil)
				if err != nil || !tensor.Equal(pooled, rows) {
					t.Errorf("%s part %d/%d: in a pooled arena: differs (%v)", name, i, parts, err)
				}
			}
			group, err := ArenaBytes(units, 0, len(units)-1, Option{Dim: DimSpatial, Parts: parts})
			if err != nil || group != most {
				t.Errorf("%s ×%d: ArenaBytes of the group %d (%v), largest part %d", name, parts, group, err, most)
			}
			if parts == 4 {
				ext, err := GroupExtent(units, 0, len(units)-1, Option{Dim: DimSpatial, Parts: parts})
				if err != nil {
					t.Fatal(err)
				}
				t.Logf("%-16s ×4: arena %8d B, ActBytes %8d B", name, most, ext.ActBytes)
			}
		}
	}
}

// TestArenaBytesOfWholeAndChannelGroups: a whole group's arena is its
// hungriest unit's plus the two slabs its inner outputs alternate between,
// each the size of the largest output it holds — at most twice the largest
// inner output, and nothing for a one-unit group; a channel group's is its
// hungriest slice's.
func TestArenaBytesOfWholeAndChannelGroups(t *testing.T) {
	g := tinyCNN(t)
	g.Init(2)
	units := linearized(t, g)
	var most, largest int64
	var slab [2]int64
	for i, u := range units {
		b, err := u.Sub.ArenaBytes()
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, b)
		if got, err := ArenaBytes(units, i, i, Option{Dim: DimNone, Parts: 1}); err != nil || got != b {
			t.Errorf("one-unit group %d: ArenaBytes %d (%v), the unit's arena %d", i, got, err, b)
		}
		if i < len(units)-1 {
			out := tensor.SizeBytes(u.OutShape)
			slab[i%2], largest = max(slab[i%2], out), max(largest, out)
		}
	}
	got, err := ArenaBytes(units, 0, len(units)-1, Option{Dim: DimNone, Parts: 1})
	if want := most + slab[0] + slab[1]; err != nil || got != want || most == 0 || slab[1] == 0 || got > most+2*largest {
		t.Errorf("whole group: ArenaBytes %d (%v), hungriest unit %d + slabs %v (largest inner output %d)", got, err, most, slab, largest)
	}
	slices, err := ChannelSlices(units[0], 2)
	if err != nil {
		t.Fatal(err)
	}
	most = 0
	for _, cs := range slices {
		b, err := cs.Sub.ArenaBytes()
		if err != nil {
			t.Fatal(err)
		}
		most = max(most, b)
	}
	got, err = ArenaBytes(units, 0, 0, Option{Dim: DimChannel, Parts: 2})
	if err != nil || got != most || most == 0 {
		t.Errorf("channel group: ArenaBytes %d (%v), hungriest slice %d", got, err, most)
	}
	for _, bad := range []struct {
		first, last int
		opt         Option
	}{{-1, 0, Option{DimNone, 1}}, {0, len(units), Option{DimNone, 1}}, {0, 1, Option{DimChannel, 2}}, {0, 0, Option{Dim(9), 2}}} {
		if _, err := ArenaBytes(units, bad.first, bad.last, bad.opt); err == nil {
			t.Errorf("ArenaBytes(%d, %d, %v) accepted", bad.first, bad.last, bad.opt)
		}
	}
}

// chain is an initialized model and its full unit chain, run as one whole
// group.
type chain struct {
	g     *graph.Graph
	units []*Unit
}

// wholeChains returns the tiny CNN plain and fused, MobileNet's depthwise
// stack, Inception's branches and a small LSTM as chains.
func wholeChains(t *testing.T) map[string]chain {
	t.Helper()
	chains := map[string]chain{}
	for _, name := range []string{"tinycnn", "tinycnn-fused", "mobilenet-mini", "inception-mini", "rnn-tiny2"} {
		var g *graph.Graph
		switch name {
		case "tinycnn", "tinycnn-fused":
			g = tinyCNN(t)
		default:
			var err error
			if g, err = models.ByName(name); err != nil {
				t.Fatal(err)
			}
		}
		g.Init(21)
		if name == "tinycnn-fused" {
			var err error
			if g, _, err = graph.Fuse(g); err != nil {
				t.Fatal(err)
			}
		}
		chains[name] = chain{g, linearized(t, g)}
	}
	return chains
}

// TestChainArenaIsWhatItTakes: a whole group's chain, run in a buffer of
// exactly ArenaBytes × batch — capacity included — that is full of NaNs,
// returns the whole graph's forward bit for bit and writes the buffer's last
// float. So the predicted size is what a chain takes, and no inner output is
// read before its unit has written it.
func TestChainArenaIsWhatItTakes(t *testing.T) {
	poison := math.Float32frombits(0x7fa5a5a5)
	for name, c := range wholeChains(t) {
		rng := rand.New(rand.NewSource(4))
		xs := []*tensor.Tensor{tensor.Rand(rng, 1, c.units[0].InShape...), tensor.Rand(rng, 1, c.units[0].InShape...)}
		bytes, err := ArenaBytes(c.units, 0, len(c.units)-1, Option{Dim: DimNone, Parts: 1})
		if err != nil {
			t.Fatal(err)
		}
		plan, err := planChain(c.units)
		if err != nil {
			t.Fatal(err)
		}
		for _, batch := range []int{1, 2} {
			buf := make([]float32, int(bytes/4)*batch)
			for j := range buf {
				buf[j] = poison
			}
			outs, err := plan.run(c.units, buf, xs[:batch], nil)
			if err != nil {
				t.Fatalf("%s ×%d: %v", name, batch, err)
			}
			for e, out := range outs {
				want, err := c.g.Forward(xs[e])
				if err != nil {
					t.Fatal(err)
				}
				if !tensor.Equal(out, want) {
					t.Errorf("%s ×%d: query %d differs from the graph's forward", name, batch, e)
				}
			}
			if n := len(buf); n > 0 && math.Float32bits(buf[n-1]) == math.Float32bits(poison) {
				t.Errorf("%s ×%d: never wrote the last float of its %d-float buffer", name, batch, n)
			}
		}
		if _, err := plan.run(c.units, make([]float32, int(bytes/4)-1), xs[:1], nil); err == nil {
			t.Errorf("%s: a buffer one float short accepted", name)
		}
	}
}

// TestConcurrentChainsShareThePool: eight goroutines forwarding different
// inputs through one unit chain — one plan, one scratch pool — each get the
// bits of their sequential forward (run under -race by `make race`), and an
// output handed out earlier is still those bits after later forwards have
// reused the buffer its inner units ran in: outputs never alias it.
func TestConcurrentChainsShareThePool(t *testing.T) {
	units := tinyGroup(t, true)
	rng := rand.New(rand.NewSource(13))
	xs := make([]*tensor.Tensor, 8)
	want := make([]*tensor.Tensor, len(xs))
	for e := range xs {
		xs[e] = tensor.Rand(rng, 1, units[0].InShape...)
		var err error
		if want[e], err = ForwardChain(units, xs[e]); err != nil {
			t.Fatal(err)
		}
	}
	first, err := ForwardChainBatch(units, xs[:2], nil)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for e := range xs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				got, err := ForwardChain(units, xs[e])
				if err != nil {
					t.Error(err)
					return
				}
				if !tensor.Equal(got, want[e]) {
					t.Errorf("goroutine %d round %d differs from its sequential forward", e, round)
					return
				}
			}
		}()
	}
	wg.Wait()
	for e, out := range first {
		if !tensor.Equal(out, want[e]) {
			t.Errorf("query %d: an output changed after later forwards reused the pool", e)
		}
	}
}

// TestChainAllocationBudget: a whole group's chain of the fused tiny CNN
// allocates its output, a tensor header per node and inner output, and a few
// slices per unit — no inner unit output: the byte budget has less slack than
// the smallest of those is big, so a tensor.New back on the path breaks it.
// One worker, so par.For spawns nothing; the minimum of several runs, so a
// collection that empties the pool between two of them does not count.
func TestChainAllocationBudget(t *testing.T) {
	if raceOn {
		t.Skip("allocation budgets are the plain build's")
	}
	units := tinyGroup(t, true)
	if len(units) < 3 {
		t.Fatalf("%d units: the chain needs inner outputs in both slabs", len(units))
	}
	nodes, smallest := 0, int64(math.MaxInt64)
	for i, u := range units {
		nodes += u.Sub.Len()
		if i < len(units)-1 {
			smallest = min(smallest, tensor.SizeBytes(u.OutShape))
		}
	}
	x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
	defer par.SetParallelism(1)()
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var out *tensor.Tensor
	for i := 0; i < 10; i++ {
		var err error
		runtime.ReadMemStats(&before)
		if out, err = ForwardChain(units, x); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d units, %d nodes, inner outputs of at least %d B: %d B in %d objects per chain, result %d B",
		len(units), nodes, smallest, bytes, objects, out.Bytes())
	// A header and some kernel bookkeeping per node and unit, and less slack
	// than the smallest inner output is big.
	maxBytes, maxObjects := uint64(out.Bytes())+uint64(256*(nodes+len(units))), uint64(5*nodes+5*len(units)+8)
	if bytes > maxBytes || objects > maxObjects || maxBytes-bytes >= uint64(smallest) {
		t.Errorf("a chain of %d units and %d nodes allocates %d B in %d objects, budget %d B in %d",
			len(units), nodes, bytes, objects, maxBytes, maxObjects)
	}
}

// TestExecSpatialPartRejectsMismatches: a slab of the wrong rows or a slice
// built for another group is an error, not a wrong answer.
func TestExecSpatialPartRejectsMismatches(t *testing.T) {
	units := tinyGroup(t, false)
	slices, err := SpatialSlices(units, 2)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(4)), 1, units[0].InShape...)
	if _, err := ExecSpatialPart(units, slices[0], x, nil); err == nil {
		t.Error("the whole input accepted as part 0's slab")
	}
	slab, err := InputSlab(x, slices[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ExecSpatialPart(units[:1], slices[0], slab, nil); err == nil {
		t.Error("a slice built for the whole group accepted for its first unit")
	}
	if _, err := ExecSpatialPart(units, PartSlice{}, slab, nil); err == nil {
		t.Error("a zero PartSlice accepted")
	}
}

// TestSpatialPartAllocationBudget: one part of the fused tiny CNN allocates
// its result, a tensor header per node and window, and two slices — no
// activation and no window: the byte budget has less slack than the smallest
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
	ps := slices[1]
	slab, err := InputSlab(x, ps)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := ps.program(units)
	if err != nil {
		t.Fatal(err)
	}
	buffers, smallest := 0, math.MaxInt
	for _, st := range prog.steps {
		buffers, smallest = buffers+1, min(smallest, 4*st.out.size())
		for _, in := range st.ins {
			if !in.whole {
				buffers, smallest = buffers+1, min(smallest, 4*in.win.size())
			}
		}
	}
	defer par.SetParallelism(1)()
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	var out *tensor.Tensor
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		if out, err = ExecSpatialPart(units, ps, slab, nil); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d steps, %d buffers of at least %d B: %d B in %d objects per part, result %d B",
		len(prog.steps), buffers, smallest, bytes, objects, out.Bytes())
	// A header and some kernel bookkeeping per buffer, and less slack than
	// the smallest buffer is big.
	maxBytes, maxObjects := uint64(out.Bytes())+uint64(256*buffers), uint64(5*len(prog.steps)+buffers+8)
	if bytes > maxBytes || objects > maxObjects || maxBytes-bytes >= uint64(smallest) {
		t.Errorf("a part of %d steps and %d buffers allocates %d B in %d objects, budget %d B in %d",
			len(prog.steps), buffers, bytes, objects, maxBytes, maxObjects)
	}
}
