package graph_test

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/par"
	"gillis/internal/partition"
	"gillis/internal/tensor"
)

// referenceForward is the forward graph.Forward was before it ran in an
// arena: every node's allocating Forward, every output a tensor of its own
// kept to the end. It is what the arena forward must equal bit for bit.
func referenceForward(t *testing.T, g *graph.Graph, x *tensor.Tensor) *tensor.Tensor {
	t.Helper()
	vals := make([]*tensor.Tensor, g.Len())
	for _, n := range g.Nodes() {
		ins := make([]*tensor.Tensor, len(n.Inputs))
		for i, in := range n.Inputs {
			if ins[i] = x; in != graph.InputID {
				ins[i] = vals[in]
			}
		}
		out, err := n.Op.Forward(ins...)
		if err != nil {
			t.Fatalf("%s node %d (%s): %v", g.Name, n.ID, n.Op.Name(), err)
		}
		vals[n.ID] = out
	}
	return vals[g.OutputID()]
}

// miniVGG is VGG's shape at a size a test can afford everywhere: conv-relu
// stages with 2×2 pools, a Flatten, and a dense head.
func miniVGG() *graph.Graph {
	g := graph.New("vgg-mini", []int{3, 32, 32})
	inC := 3
	for i, c := range []int{8, -1, 16, 16, -1} {
		if c < 0 {
			g.MustAdd(nn.NewMaxPool2D(fmt.Sprintf("pool%d", i), 2, 2, 0))
			continue
		}
		g.MustAdd(nn.NewConv2D(fmt.Sprintf("conv%d", i), inC, c, 3, 1, 1))
		g.MustAdd(nn.NewReLU(fmt.Sprintf("relu%d", i)))
		inC = c
	}
	g.MustAdd(nn.NewFlatten("flatten"))
	g.MustAdd(nn.NewDense("fc1", 16*8*8, 32))
	g.MustAdd(nn.NewReLU("fc1_relu"))
	g.MustAdd(nn.NewDense("fc2", 32, 10))
	g.MustAdd(nn.NewSoftmax("prob"))
	return g
}

// zoo names the models the arena is checked on, one per operator family the
// plan treats specially — Flatten views (VGG), TakeLast views and LSTM state
// (the RNNs), depthwise convolutions (MobileNet), Concat (Inception), residual
// taps that outlive a whole block (ResNet) — and, where the run can afford
// their weights, the full-size resnet34, resnet50 and vgg11. Each is built,
// checked and dropped in turn: vgg11 alone is half a gigabyte.
func zoo(t *testing.T) map[string]func() (*graph.Graph, error) {
	t.Helper()
	builders := map[string]func() (*graph.Graph, error){
		"vgg-mini": func() (*graph.Graph, error) { return miniVGG(), nil },
		"rnn3":     func() (*graph.Graph, error) { return models.RNNCustom(3, 24, 5, 50) },
	}
	names := []string{"mobilenet-mini", "inception-mini", "rnn-tiny2"}
	if !testing.Short() && !raceOn {
		names = append(names, "resnet34", "resnet50", "vgg11")
	}
	for _, name := range names {
		builders[name] = func() (*graph.Graph, error) { return models.ByName(name) }
	}
	return builders
}

func inputs(g *graph.Graph, seed int64, n int) []*tensor.Tensor {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]*tensor.Tensor, n)
	for e := range xs {
		xs[e] = tensor.Rand(rng, 1, g.InShape()...)
	}
	return xs
}

// sentinel is a NaN no kernel produces; an arena float that still holds it
// after a forward was never written.
var sentinel = math.Float32frombits(0x7fa5a5a5)

// TestArenaForwardOnZoo checks, on every zoo model plain and operator-fused:
//
//   - the arena forward (ForwardBatch, arena from the pool) returns the bits
//     of the keep-everything reference walk, at batch 1 to 3;
//   - a forward handed an arena of exactly ArenaBytes × batch — capacity
//     included, so one float more is an index out of range — does too, and
//     writes the last float of every query's stretch: the plan promises no
//     less than a forward takes and no more;
//   - the plan is at least the largest set of values live at any one step,
//     worked out here without laying anything out, and within an eighth of it.
func TestArenaForwardOnZoo(t *testing.T) {
	for name, build := range zoo(t) {
		t.Run(name, func(t *testing.T) {
			plain, err := build()
			if err != nil {
				t.Fatal(err)
			}
			plain.Init(7)
			fused, _, err := graph.Fuse(plain)
			if err != nil {
				t.Fatal(err)
			}
			// A full-size model runs seconds per forward on a slow kernel:
			// two inputs instead of three, and no second plain batch.
			heavy := plain.ParamBytes() > 50<<20
			xs := inputs(plain, 3, 3)
			if heavy {
				xs = xs[:2]
			}
			wants := make([]*tensor.Tensor, len(xs))
			for e, x := range xs {
				wants[e] = referenceForward(t, plain, x)
			}
			same := func(what string, outs []*tensor.Tensor) {
				t.Helper()
				for e, out := range outs {
					if !tensor.Equal(out, wants[e]) {
						t.Errorf("%s: query %d of %d differs from the reference forward", what, e, len(outs))
					}
				}
			}
			for _, c := range []struct {
				what        string
				g           *graph.Graph
				pool, exact int // batch sizes
			}{{"plain", plain, 1, 2}, {"fused", fused, len(xs), 1}} {
				bytes, err := c.g.ArenaBytes()
				if err != nil {
					t.Fatal(err)
				}
				size := int(bytes / 4)
				if peak := peakLive(t, c.g); size < peak || size > peak+peak/8 {
					t.Errorf("%s: arena of %d floats, peak live set %d", c.what, size, peak)
				}
				if !heavy || c.g == fused {
					outs, err := c.g.ForwardBatch(xs[:c.pool], nil)
					if err != nil {
						t.Fatal(err)
					}
					same(c.what+" in a pooled arena", outs)
				}
				arena := make([]float32, size*c.exact)
				for i := range arena {
					arena[i] = sentinel
				}
				outs := make([]*tensor.Tensor, c.exact)
				for e := range outs {
					outs[e] = tensor.Full(sentinel, wants[e].Shape()...)
				}
				if err := c.g.ForwardBatchIn(arena, xs[:c.exact], outs, nil); err != nil {
					t.Fatal(err)
				}
				same(c.what+" in an arena of exactly ArenaBytes", outs)
				for e := range outs {
					if size > 0 && math.Float32bits(arena[(e+1)*size-1]) == math.Float32bits(sentinel) {
						t.Errorf("%s: query %d never wrote the last float of its %d-float arena", c.what, e, size)
					}
				}
				t.Logf("%s: %d nodes, arena %d B", c.what, c.g.Len(), bytes)
			}
		})
	}
}

// miniResNet is a residual CNN at a size a test can afford everywhere, with
// every spatial operator kind a part lowers: a padded stem, a 3/2/1 max pool
// whose windows overhang both borders with -inf, a residual diamond, and an
// average pool.
func miniResNet() *graph.Graph {
	g := graph.New("resnet-mini", []int{3, 24, 24})
	g.MustAdd(nn.NewConv2D("stem", 3, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 8))
	g.MustAdd(nn.NewReLU("stem_relu"))
	pool := g.MustAdd(nn.NewMaxPool2D("pool", 3, 2, 1))
	g.MustAdd(nn.NewConv2D("b_conv1", 8, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("b_bn1", 8))
	g.MustAdd(nn.NewReLU("b_relu1"))
	g.MustAdd(nn.NewConv2D("b_conv2", 8, 8, 3, 1, 1))
	b2 := g.MustAdd(nn.NewBatchNorm("b_bn2", 8))
	g.MustAdd(nn.NewAdd("b_add"), b2, pool)
	g.MustAdd(nn.NewReLU("b_relu2"))
	g.MustAdd(nn.NewAvgPool2D("avg", 2, 2))
	return g
}

// TestArenaForwardOnSpatialParts: every spatial part
// (partition.PartSlice.Graph) of the leading spatial units of a CNN — two
// tiny ones plain and operator-fused, zoo models fused — split one to four
// ways, run at batch 2 (resnet34: 1) in an arena of exactly ArenaBytes ×
// batch — capacity included — that is full of NaNs, returns its rows of the
// unit-by-unit forward bit for bit and writes the last float of every
// query's stretch. So a part's arena, windows cut into work space included,
// is what it takes; no window or node output is read before it is written;
// and a border of zeros or -inf is filled, not assumed.
func TestArenaForwardOnSpatialParts(t *testing.T) {
	tiny := map[string]func() *graph.Graph{"resnet-mini": miniResNet, "vgg-mini": miniVGG}
	names := []string{"resnet-mini", "vgg-mini", "mobilenet-mini", "inception-mini"}
	if !testing.Short() && !raceOn {
		names = append(names, "resnet34")
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			var plain *graph.Graph
			var err error
			if build, ok := tiny[name]; ok {
				plain = build()
			} else if plain, err = models.ByName(name); err != nil {
				t.Fatal(err)
			}
			plain.Init(7)
			fused, _, err := graph.Fuse(plain)
			if err != nil {
				t.Fatal(err)
			}
			// A zoo model's forward costs seconds on a slow kernel: its fused
			// graph only (as served), and resnet34 one query.
			graphs := []*graph.Graph{plain, fused}
			if tiny[name] == nil {
				graphs = graphs[1:]
			}
			for _, g := range graphs {
				units, err := partition.Linearize(g)
				if err != nil {
					t.Fatal(err)
				}
				n := 0
				for n < min(len(units), 7) && units[n].Spatial {
					n++
				}
				units = units[:n]
				xs := inputs(g, 3, 2)
				if name == "resnet34" {
					xs = xs[:1]
				}
				wants := make([]*tensor.Tensor, len(xs))
				for e, x := range xs {
					if wants[e], err = partition.ForwardChain(units, x); err != nil {
						t.Fatal(err)
					}
				}
				for parts := 1; parts <= 4; parts++ {
					slices, err := partition.SpatialSlices(units, parts)
					if err != nil {
						t.Fatal(err)
					}
					for i, ps := range slices {
						checkPartInExactArena(t, fmt.Sprintf("%s part %d/%d", g.Name, i, parts), units, ps, xs, wants)
					}
				}
			}
		})
	}
}

// checkPartInExactArena runs part ps of units on every query of xs in a
// NaN-filled arena of exactly its ArenaBytes per query and checks the result
// against rows ps.OutRows of wants.
func checkPartInExactArena(t *testing.T, what string, units []*partition.Unit, ps partition.PartSlice, xs, wants []*tensor.Tensor) {
	t.Helper()
	g, err := ps.Graph(units)
	if err != nil {
		t.Fatal(err)
	}
	bytes, err := g.ArenaBytes()
	if err != nil {
		t.Fatal(err)
	}
	size := int(bytes / 4)
	arena := make([]float32, size*len(xs))
	for i := range arena {
		arena[i] = sentinel
	}
	slabs := make([]*tensor.Tensor, len(xs))
	outs := make([]*tensor.Tensor, len(xs))
	rows := make([]*tensor.Tensor, len(xs))
	for e, x := range xs {
		if slabs[e], err = partition.InputSlab(x, ps); err != nil {
			t.Fatal(err)
		}
		if rows[e], err = wants[e].SliceDim(1, ps.OutRows.Lo, ps.OutRows.Hi); err != nil {
			t.Fatal(err)
		}
		outs[e] = tensor.Full(sentinel, rows[e].Shape()...)
	}
	if err := g.ForwardBatchIn(arena, slabs, outs, nil); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	for e := range outs {
		if !tensor.Equal(outs[e], rows[e]) {
			t.Errorf("%s: query %d differs from rows %v of the unit-by-unit forward", what, e, ps.OutRows)
		}
		if size > 0 && math.Float32bits(arena[(e+1)*size-1]) == math.Float32bits(sentinel) {
			t.Errorf("%s: query %d never wrote the last float of its %d-float arena", what, e, size)
		}
	}
}

// TestArenaPlanOnFullSizeZoo checks the plan against the peak live set on the
// paper's models at full size. A plan needs shapes, not weights, so this costs
// nothing, whatever the run can afford to forward.
func TestArenaPlanOnFullSizeZoo(t *testing.T) {
	for _, name := range []string{"vgg11", "vgg16", "vgg19", "resnet34", "resnet50", "resnet101", "wrn50-2", "rnn2", "rnn8",
		"inception-mini", "mobilenet-mini", "mobilenet-mini-w3", "rnn-tiny6"} {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		bytes, err := g.ArenaBytes()
		if err != nil {
			t.Fatal(err)
		}
		if size, peak := int(bytes/4), peakLive(t, g); size < peak || size > peak+peak/8 {
			t.Errorf("%s: arena of %d floats, peak live set %d", name, size, peak)
		}
	}
}

// peakLive is the most floats of node outputs live at any node's step, worked
// out from shapes and consumers alone and without laying anything out: a
// value is live from its node to its last consumer, a value an Aliaser
// re-views for as long as the view, and the graph's output not at all (the
// caller owns it).
func peakLive(t *testing.T, g *graph.Graph) int {
	t.Helper()
	shapes, err := g.Shapes()
	if err != nil {
		t.Fatal(err)
	}
	consumers, err := g.Consumers()
	if err != nil {
		t.Fatal(err)
	}
	isView := func(id int) bool {
		_, ok := g.Node(id).Op.(nn.Aliaser)
		return ok && id != g.OutputID()
	}
	var lastUse func(id int) int
	lastUse = func(id int) int {
		last := id
		for _, c := range consumers[id] {
			if last = max(last, c); isView(c) {
				last = max(last, lastUse(c))
			}
		}
		return last
	}
	last := make([]int, g.Len())
	for id := range last {
		last[id] = lastUse(id)
	}
	peak := 0
	for step := 0; step < g.Len(); step++ {
		live := 0
		for id := 0; id <= step; id++ {
			if id != g.OutputID() && !isView(id) && last[id] >= step {
				n, _ := tensor.NumElements(shapes[id])
				live += n
			}
		}
		peak = max(peak, live)
	}
	return peak
}

// TestLayoutKeepsLiveBuffersApart: for random programs, buffers whose
// lifetimes overlap never share a float, and the arena ends where the
// furthest buffer does.
func TestLayoutKeepsLiveBuffersApart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for round := 0; round < 300; round++ {
		bufs := make([]graph.Buffer, 1+rng.Intn(40))
		step := 0
		for i := range bufs {
			step += rng.Intn(2)
			bufs[i] = graph.Buffer{Size: rng.Intn(50), Def: step, Last: step + rng.Intn(6)}
		}
		offs, size := graph.Layout(bufs)
		end := 0
		for i, a := range bufs {
			end = max(end, offs[i]+a.Size)
			for j, b := range bufs[:i] {
				if a.Def <= b.Last && b.Def <= a.Last && offs[i] < offs[j]+b.Size && offs[j] < offs[i]+a.Size {
					t.Fatalf("round %d: %+v at %d and %+v at %d overlap", round, a, offs[i], b, offs[j])
				}
			}
		}
		if size != end {
			t.Fatalf("round %d: size %d, furthest buffer ends at %d", round, size, end)
		}
	}
}

// TestConcurrentForwardsShareThePool: eight goroutines forwarding different
// inputs through one graph — one plan, one scratch pool — each get the bits of
// their sequential forward (run under -race by `make race`), and an output
// handed out earlier is still those bits after later forwards have reused the
// arena it was computed in: outputs never alias it.
func TestConcurrentForwardsShareThePool(t *testing.T) {
	g, err := models.RNNCustom(2, 24, 5, 50)
	if err != nil {
		t.Fatal(err)
	}
	cnn, _, err := graph.Fuse(miniVGG())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []*graph.Graph{g, cnn} {
		g.Init(11)
		xs := inputs(g, 13, 8)
		want := make([]*tensor.Tensor, len(xs))
		for e, x := range xs {
			want[e] = referenceForward(t, g, x)
		}
		first, err := g.Forward(xs[0])
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for e := range xs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for round := 0; round < 20; round++ {
					got, err := g.Forward(xs[e])
					if err != nil {
						t.Error(err)
						return
					}
					if !tensor.Equal(got, want[e]) {
						t.Errorf("%s: goroutine %d round %d differs from its sequential forward", g.Name, e, round)
						return
					}
				}
			}()
		}
		wg.Wait()
		if !tensor.Equal(first, want[0]) {
			t.Errorf("%s: an output changed after later forwards reused the arena", g.Name)
		}
	}
}

// TestForwardAllocationBudget: a fused small-CNN forward allocates its output,
// one tensor header per node and a few slices — no activation. The smallest
// activation of miniVGG is 4 KB and the largest 32 KB, so a tensor.New back on
// the path of any node breaks the byte budget; the object budget catches
// per-node slices creeping in. Measured with one worker, so par.For spawns
// nothing, and as the minimum of several forwards, so a collection that
// empties the pool between two of them does not count.
func TestForwardAllocationBudget(t *testing.T) {
	g, _, err := graph.Fuse(miniVGG())
	if err != nil {
		t.Fatal(err)
	}
	g.Init(1)
	x := inputs(g, 1, 1)[0]
	defer par.SetParallelism(1)()
	bytes, objects := uint64(math.MaxUint64), uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for i := 0; i < 10; i++ {
		runtime.ReadMemStats(&before)
		if _, err := g.Forward(x); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, after.TotalAlloc-before.TotalAlloc)
		objects = min(objects, after.Mallocs-before.Mallocs)
	}
	t.Logf("%d nodes: %d B in %d objects per forward", g.Len(), bytes, objects)
	if maxBytes, maxObjects := uint64(3<<10), uint64(6*g.Len()+12); bytes > maxBytes || objects > maxObjects {
		t.Errorf("a %d-node forward allocates %d B in %d objects, budget %d B in %d", g.Len(), bytes, objects, maxBytes, maxObjects)
	}
}
