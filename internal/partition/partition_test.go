package partition

import (
	"math/rand"
	"testing"
	"testing/quick"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// tinyCNN builds a small conv net with a residual block, exercising every
// spatial op kind: stem conv + bn + relu, maxpool, residual block with
// downsample, avgpool.
func tinyCNN(t *testing.T) *graph.Graph {
	t.Helper()
	g := graph.New("tinycnn", []int{3, 24, 24})
	g.MustAdd(nn.NewConv2D("stem", 3, 8, 3, 1, 1))
	g.MustAdd(nn.NewBatchNorm("stem_bn", 8))
	g.MustAdd(nn.NewReLU("stem_relu"))
	pool := g.MustAdd(nn.NewMaxPool2D("pool", 3, 2, 1))
	c1 := g.MustAdd(nn.NewConv2D("b_conv1", 8, 8, 3, 1, 1), pool)
	b1 := g.MustAdd(nn.NewBatchNorm("b_bn1", 8), c1)
	r1 := g.MustAdd(nn.NewReLU("b_relu1"), b1)
	c2 := g.MustAdd(nn.NewConv2D("b_conv2", 8, 8, 3, 1, 1), r1)
	b2 := g.MustAdd(nn.NewBatchNorm("b_bn2", 8), c2)
	add := g.MustAdd(nn.NewAdd("b_add"), b2, pool)
	g.MustAdd(nn.NewReLU("b_relu2"), add)
	g.MustAdd(nn.NewAvgPool2D("avg", 2, 2))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	return g
}

func linearized(t *testing.T, g *graph.Graph) []*Unit {
	t.Helper()
	units, err := Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	return units
}

func TestLinearizeTinyCNN(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	// Expected units after merging: [stem conv+bn+relu], [pool],
	// [residual block + trailing relu], [avgpool].
	if len(units) != 4 {
		for _, u := range units {
			t.Log(u)
		}
		t.Fatalf("got %d units, want 4", len(units))
	}
	if !units[0].Channel || !units[0].Spatial {
		t.Errorf("stem unit should be spatial+channel: %v", units[0])
	}
	if units[1].Channel {
		t.Errorf("pool unit must not be channel-partitionable")
	}
	if units[2].Channel || !units[2].Spatial {
		t.Errorf("residual block should be spatial-only: %v", units[2])
	}
	if units[2].Sub.Len() != 7 {
		t.Errorf("block should hold 7 ops, got %d", units[2].Sub.Len())
	}
	// FLOPs and params are preserved by linearization.
	g := tinyCNN(t)
	wantFLOPs, err := g.FLOPs()
	if err != nil {
		t.Fatal(err)
	}
	var gotFLOPs, gotParams int64
	for _, u := range units {
		gotFLOPs += u.FLOPs
		gotParams += u.ParamBytes
	}
	if gotFLOPs != wantFLOPs {
		t.Errorf("FLOPs %d != %d", gotFLOPs, wantFLOPs)
	}
	if gotParams != g.ParamBytes() {
		t.Errorf("params %d != %d", gotParams, g.ParamBytes())
	}
}

func TestLinearizeZooModels(t *testing.T) {
	cases := []struct {
		name     string
		minUnits int
		maxUnits int
	}{
		{"vgg11", 15, 25},
		{"resnet34", 18, 22}, // stem, pool, 16 blocks, gap, fc, softmax
		{"resnet50", 18, 22},
		{"rnn3", 6, 7}, // 3 lstm + takelast + dense(+sm merged? no) + softmax
	}
	for _, c := range cases {
		g, err := models.ByName(c.name)
		if err != nil {
			t.Fatal(err)
		}
		units := linearized(t, g)
		if len(units) < c.minUnits || len(units) > c.maxUnits {
			t.Errorf("%s: %d units, want in [%d,%d]", c.name, len(units), c.minUnits, c.maxUnits)
		}
		// Boundary shapes must chain.
		for i := 1; i < len(units); i++ {
			if !tensor.ShapeEqual(units[i].InShape, units[i-1].OutShape) {
				t.Fatalf("%s: unit %d input %v != unit %d output %v",
					c.name, i, units[i].InShape, i-1, units[i-1].OutShape)
			}
		}
	}
}

func TestResNetBlockUnitsAreSpatial(t *testing.T) {
	g, err := models.ResNet(34)
	if err != nil {
		t.Fatal(err)
	}
	units := linearized(t, g)
	spatialCount := 0
	for _, u := range units {
		if u.Spatial {
			spatialCount++
		}
	}
	// Stem + pool + 16 residual blocks are all spatial; gap/fc/softmax not.
	if spatialCount != 18 {
		t.Fatalf("resnet34 spatial units %d, want 18", spatialCount)
	}
}

func TestRNNUnitsNotPartitionable(t *testing.T) {
	g, err := models.RNNCustom(3, 8, 5, 11)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range linearized(t, g) {
		if u.Spatial {
			t.Errorf("RNN unit %s must not be spatially partitionable", u.Name)
		}
	}
}

func TestForwardChainMatchesGraph(t *testing.T) {
	g := tinyCNN(t)
	g.Init(3)
	units := linearized(t, g)
	x := tensor.Rand(rand.New(rand.NewSource(4)), 1, 3, 24, 24)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("linearized execution must match graph execution bitwise")
	}
}

// THE core correctness property: spatially partitioned group execution is
// bitwise identical to monolithic execution, for any partition count, on a
// model with strides, padding, max pooling, and a residual diamond.
func TestSpatialPartitionExactness(t *testing.T) {
	g := tinyCNN(t)
	g.Init(5)
	units := linearized(t, g)
	x := tensor.Rand(rand.New(rand.NewSource(6)), 1, 3, 24, 24)
	want, err := ForwardChain(units, x)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 4, 6} {
		got, err := ExecSpatial(units, parts, x)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if !tensor.Equal(want, got) {
			d, _ := tensor.MaxAbsDiff(want, got)
			t.Fatalf("parts=%d: partitioned output differs (max |Δ| = %v)", parts, d)
		}
	}
}

// Sub-groups (partial unit ranges) must also be exact, since the DP
// algorithm forms groups at arbitrary boundaries.
func TestSpatialSubgroupExactness(t *testing.T) {
	g := tinyCNN(t)
	g.Init(7)
	units := linearized(t, g)
	x := tensor.Rand(rand.New(rand.NewSource(8)), 1, 3, 24, 24)

	// Compute unit-boundary activations monolithically.
	acts := []*tensor.Tensor{x}
	cur := x
	for _, u := range units {
		out, err := u.Sub.Forward(cur)
		if err != nil {
			t.Fatal(err)
		}
		acts = append(acts, out)
		cur = out
	}
	for first := 0; first < len(units); first++ {
		for last := first; last < len(units); last++ {
			group := units[first : last+1]
			spatial := true
			for _, u := range group {
				if !u.Spatial {
					spatial = false
				}
			}
			if !spatial || group[len(group)-1].OutHeight() < 3 {
				continue
			}
			got, err := ExecSpatial(group, 3, acts[first])
			if err != nil {
				t.Fatalf("group [%d,%d]: %v", first, last, err)
			}
			if !tensor.Equal(acts[last+1], got) {
				t.Fatalf("group [%d,%d]: partitioned output differs", first, last)
			}
		}
	}
}

// Property test: random conv/pool/bn/relu chains, random partition counts.
func TestSpatialPartitionExactnessProperty(t *testing.T) {
	f := func(seed int64, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		h := 12 + rng.Intn(16)
		c := 1 + rng.Intn(3)
		g := graph.New("rand", []int{c, h, h})
		depth := 1 + rng.Intn(4)
		inC := c
		for i := 0; i < depth; i++ {
			switch rng.Intn(4) {
			case 0, 1:
				outC := 1 + rng.Intn(4)
				k := []int{1, 3, 5}[rng.Intn(3)]
				s := 1 + rng.Intn(2)
				g.MustAdd(nn.NewConv2D(opName("conv", i), inC, outC, k, s, k/2))
				inC = outC
			case 2:
				g.MustAdd(nn.NewMaxPool2D(opName("mp", i), 2, 2, 0))
			case 3:
				g.MustAdd(nn.NewBatchNorm(opName("bn", i), inC))
				g.MustAdd(nn.NewReLU(opName("relu", i)))
			}
		}
		if err := g.Validate(); err != nil {
			return true // degenerate (output collapsed); skip
		}
		g.Init(seed)
		units, err := Linearize(g)
		if err != nil {
			return false
		}
		for _, u := range units {
			if !u.Spatial {
				return false
			}
		}
		outH := units[len(units)-1].OutHeight()
		parts := 1 + int(partsRaw)%4
		if parts > outH {
			parts = outH
		}
		x := tensor.Rand(rng, 1, c, h, h)
		want, err := ForwardChain(units, x)
		if err != nil {
			return false
		}
		got, err := ExecSpatial(units, parts, x)
		if err != nil {
			return false
		}
		return tensor.Equal(want, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestChannelPartitionExactness(t *testing.T) {
	g := tinyCNN(t)
	g.Init(9)
	units := linearized(t, g)
	u := units[0] // stem conv+bn+relu, channel-partitionable
	if !u.Channel {
		t.Fatal("stem unit should be channel-partitionable")
	}
	x := tensor.Rand(rand.New(rand.NewSource(10)), 1, 3, 24, 24)
	want, err := u.Sub.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 4, 8} {
		got, err := ExecChannel(u, parts, x)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if !tensor.Equal(want, got) {
			t.Fatalf("parts=%d: channel-partitioned output differs", parts)
		}
	}
}

func TestChannelPartitionDense(t *testing.T) {
	g := graph.New("fc", []int{16})
	g.MustAdd(nn.NewDense("fc1", 16, 12))
	g.MustAdd(nn.NewReLU("relu"))
	g.Init(2)
	units := linearized(t, g)
	if len(units) != 1 || !units[0].Channel {
		t.Fatalf("dense+relu should merge into one channel unit: %v", units)
	}
	x := tensor.Rand(rand.New(rand.NewSource(3)), 1, 16)
	want, err := units[0].Sub.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ExecChannel(units[0], 3, x)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.Equal(want, got) {
		t.Fatal("dense channel partition differs")
	}
}

func TestSpatialSlicesHaloGrowth(t *testing.T) {
	// Two stacked 3x3 convs: interior partition needs 2 halo rows per side.
	g := graph.New("halo", []int{1, 16, 16})
	g.MustAdd(nn.NewConv2D("c1", 1, 1, 3, 1, 1))
	g.MustAdd(nn.NewConv2D("c2", 1, 1, 3, 1, 1))
	units := linearized(t, g)
	slices, err := SpatialSlices(units, 4)
	if err != nil {
		t.Fatal(err)
	}
	mid := slices[1] // interior: out rows [4,8)
	if mid.OutRows != (RowRange{4, 8}) {
		t.Fatalf("out rows %v", mid.OutRows)
	}
	if mid.InRows != (RowRange{2, 10}) {
		t.Fatalf("interior in rows %v, want [2,10) (2-row halo per side)", mid.InRows)
	}
	if slices[0].InRows != (RowRange{0, 6}) {
		t.Fatalf("boundary in rows %v, want [0,6)", slices[0].InRows)
	}
	// Total FLOPs across partitions must exceed the monolithic FLOPs
	// (redundant halo computation), and grow with partition count.
	ext4, err := GroupExtent(units, 0, 1, Option{Dim: DimSpatial, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	ext8, err := GroupExtent(units, 0, 1, Option{Dim: DimSpatial, Parts: 8})
	if err != nil {
		t.Fatal(err)
	}
	mono := units[0].FLOPs + units[1].FLOPs
	if ext4.TotalFLOPs <= mono {
		t.Fatalf("4-way total FLOPs %d should exceed monolithic %d (halo redundancy)", ext4.TotalFLOPs, mono)
	}
	if ext8.TotalFLOPs <= ext4.TotalFLOPs {
		t.Fatalf("redundancy should grow with parts: %d vs %d", ext8.TotalFLOPs, ext4.TotalFLOPs)
	}
}

func TestFeasibleOptions(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	// Whole-model group: spatial only (block kills channel).
	opts, err := FeasibleOptions(units, 0, 2, nil)
	if err != nil {
		t.Fatal(err)
	}
	hasSpatial, hasChannel := false, false
	for _, o := range opts {
		if o.Dim == DimSpatial {
			hasSpatial = true
		}
		if o.Dim == DimChannel {
			hasChannel = true
		}
	}
	if !hasSpatial || hasChannel {
		t.Fatalf("group [0,2] options %v: want spatial, no channel", opts)
	}
	// Single stem unit: both.
	opts, err = FeasibleOptions(units, 0, 0, []int{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	hasChannel = false
	for _, o := range opts {
		if o.Dim == DimChannel {
			hasChannel = true
		}
	}
	if !hasChannel {
		t.Fatalf("stem options %v missing channel", opts)
	}
	if _, err := FeasibleOptions(units, 2, 1, nil); err == nil {
		t.Fatal("expected bad-range error")
	}
}

func TestGroupExtentChannelReducesWeights(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	u := units[0]
	whole, err := GroupExtent(units, 0, 0, Option{Dim: DimNone, Parts: 1})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := GroupExtent(units, 0, 0, Option{Dim: DimChannel, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if ch.WeightBytes >= whole.WeightBytes {
		t.Fatalf("channel partition must shrink per-function weights: %d vs %d", ch.WeightBytes, whole.WeightBytes)
	}
	sp, err := GroupExtent(units, 0, 0, Option{Dim: DimSpatial, Parts: 4})
	if err != nil {
		t.Fatal(err)
	}
	if sp.WeightBytes != u.ParamBytes {
		t.Fatalf("spatial partition replicates weights: %d vs %d", sp.WeightBytes, u.ParamBytes)
	}
	// Channel partitions each need the full input.
	if ch.InBytesTotal != 4*tensor.SizeBytes(u.InShape) {
		t.Fatalf("channel in bytes %d, want 4× full input", ch.InBytesTotal)
	}
}

func TestPlanValidate(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	good := &Plan{Model: "tiny", Groups: []GroupPlan{
		{First: 0, Last: 1, Option: Option{Dim: DimSpatial, Parts: 2}, OnMaster: true},
		{First: 2, Last: 2, Option: Option{Dim: DimSpatial, Parts: 4}},
		{First: 3, Last: 3, Option: Option{Dim: DimNone, Parts: 1}, OnMaster: true},
	}}
	if err := good.Validate(units); err != nil {
		t.Fatal(err)
	}
	if got := good.Groups[0].Workers(); got != 1 {
		t.Fatalf("workers %d, want 1 (master takes a partition)", got)
	}
	if got := good.Groups[1].Workers(); got != 4 {
		t.Fatalf("workers %d, want 4", got)
	}
	bad := &Plan{Groups: []GroupPlan{{First: 0, Last: 1, Option: Option{Dim: DimSpatial, Parts: 2}}}}
	if err := bad.Validate(units); err == nil {
		t.Fatal("expected coverage error")
	}
	gap := &Plan{Groups: []GroupPlan{
		{First: 0, Last: 0, Option: Option{Dim: DimNone, Parts: 1}},
		{First: 2, Last: 3, Option: Option{Dim: DimNone, Parts: 1}},
	}}
	if err := gap.Validate(units); err == nil {
		t.Fatal("expected gap error")
	}
	infeasible := &Plan{Groups: []GroupPlan{
		{First: 0, Last: 3, Option: Option{Dim: DimChannel, Parts: 2}},
	}}
	if err := infeasible.Validate(units); err == nil {
		t.Fatal("expected infeasible-option error")
	}
}

// TestExtentFoldsItsParts: an extent lists one entry per partition, its
// totals are the entries' sums, its weights the largest entry's, and its
// group FLOPs the monolithic group's.
func TestExtentFoldsItsParts(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	for _, c := range []struct {
		first, last int
		opt         Option
	}{{0, 3, Option{DimNone, 1}}, {0, 1, Option{DimSpatial, 2}}, {0, 0, Option{DimChannel, 4}}} {
		ext, err := GroupExtent(units, c.first, c.last, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(ext.PerPart) != c.opt.Parts {
			t.Fatalf("%v: %d parts listed", c.opt, len(ext.PerPart))
		}
		var sum PartExtent
		var weights, mono int64
		for _, p := range ext.PerPart {
			sum.FLOPs += p.FLOPs
			sum.InBytes += p.InBytes
			sum.OutBytes += p.OutBytes
			weights = max(weights, p.WeightBytes)
		}
		for _, u := range units[c.first : c.last+1] {
			mono += u.FLOPs
		}
		if sum.FLOPs != ext.TotalFLOPs || sum.InBytes != ext.InBytesTotal || sum.OutBytes != ext.OutBytesTotal ||
			weights != ext.WeightBytes || mono != ext.GroupFLOPs {
			t.Errorf("%v: parts fold to %+v and %d weight bytes, extent %+v", c.opt, sum, weights, ext)
		}
		if got := ext.ResidentBytes(3); got != ext.WeightBytes+3*ext.ActBytes {
			t.Errorf("%v: resident bytes at batch 3: %d", c.opt, got)
		}
	}
}

// TestFeasibleRejectsDegenerateOptions: one part is a whole group, not a
// split; a range outside the chain is no group; and the check allocates
// nothing, so the planners can ask it per action.
func TestFeasibleRejectsDegenerateOptions(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	for _, c := range []struct {
		first, last int
		opt         Option
		want        bool
	}{
		{0, 1, Option{DimSpatial, 2}, true},
		{0, 0, Option{DimChannel, 2}, true},
		{0, 3, Option{DimNone, 1}, true},
		{0, 1, Option{DimSpatial, 1}, false},
		{0, 0, Option{DimChannel, 1}, false},
		{0, 3, Option{DimNone, 2}, false},
		{0, 1, Option{DimChannel, 2}, false},
		{-1, 0, Option{DimNone, 1}, false},
		{0, len(units), Option{DimNone, 1}, false},
		{0, 0, Option{Dim(9), 2}, false},
	} {
		if got := Feasible(units, c.first, c.last, c.opt); got != c.want {
			t.Errorf("Feasible(%d, %d, %v) = %v, want %v", c.first, c.last, c.opt, got, c.want)
		}
	}
	opt := Option{DimSpatial, 2}
	if n := testing.AllocsPerRun(100, func() { Feasible(units, 0, 1, opt) }); n != 0 {
		t.Errorf("Feasible allocates %v times", n)
	}
}

func TestSpatialSlicesErrors(t *testing.T) {
	units := linearized(t, tinyCNN(t))
	if _, err := SpatialSlices(nil, 2); err == nil {
		t.Fatal("expected empty-group error")
	}
	if _, err := SpatialSlices(units[:1], 0); err == nil {
		t.Fatal("expected bad-parts error")
	}
	if _, err := SpatialSlices(units[:1], 1000); err == nil {
		t.Fatal("expected too-many-parts error")
	}
	g, err := models.RNNCustom(1, 4, 3, 5)
	if err != nil {
		t.Fatal(err)
	}
	rnnUnits := linearized(t, g)
	if _, err := SpatialSlices(rnnUnits[:1], 2); err == nil {
		t.Fatal("expected non-spatial error")
	}
	if _, err := ChannelSlices(rnnUnits[0], 2); err == nil {
		t.Fatal("expected non-channel error")
	}
}

func opName(prefix string, i int) string {
	return prefix + string(rune('a'+i))
}

// TestDefaultPlanValidatesOnEveryZooModel: the single-function plan is valid
// for any linearized model by construction — one whole group covering the
// chain — which is why its callers no longer validate it themselves.
func TestDefaultPlanValidatesOnEveryZooModel(t *testing.T) {
	for _, name := range []string{
		"vgg11", "vgg16", "vgg19",
		"resnet34", "resnet50", "resnet101",
		"wrn34-2", "wrn50-2", "wrn50-4", "wrn101-2",
		"rnn2", "rnn4", "rnn6", "rnn8",
		"inception-mini", "mobilenet-mini",
		"mobilenet-mini-w2", "mobilenet-mini-w3",
		"rnn-tiny2", "rnn-tiny4", "rnn-tiny6",
	} {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		units := linearized(t, g)
		plan := DefaultPlan(name, units)
		if err := plan.Validate(units); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if gp := plan.Groups[0]; plan.Model != name || len(plan.Groups) != 1 || gp.Workers() != 0 ||
			gp.First != 0 || gp.Last != len(units)-1 {
			t.Errorf("%s: not one master-only group over the chain: %+v", name, plan)
		}
	}
}
