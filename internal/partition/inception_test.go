package partition

import (
	"math/rand"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// The paper's Fig. 5 shows branch merging for both residual blocks and
// Inception modules; these tests cover the Inception side.

func TestLinearizeMiniInception(t *testing.T) {
	g, err := models.MiniInception()
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	units, err := Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	// Stem conv(+relu), stem pool, 2 inception modules, pool3, inception,
	// gap, fc(+softmax? softmax stays separate), softmax.
	if len(units) < 8 || len(units) > 10 {
		for _, u := range units {
			t.Log(u)
		}
		t.Fatalf("unexpected unit count %d", len(units))
	}
	// Each inception module must collapse into one spatial unit.
	inceptionUnits := 0
	for _, u := range units {
		if u.Sub.Len() >= 10 { // 4 branches ≈ 12 ops
			inceptionUnits++
			if !u.Spatial {
				t.Errorf("inception unit %s must be spatial", u.Name)
			}
			if u.Channel {
				t.Errorf("inception unit %s must not be channel-partitionable", u.Name)
			}
		}
	}
	if inceptionUnits != 3 {
		t.Fatalf("expected 3 merged inception modules, got %d", inceptionUnits)
	}
}

// A small Inception module must execute spatially partitioned with bitwise
// exactness (concat + multi-branch halos).
func TestInceptionSpatialExactness(t *testing.T) {
	g := graph.New("mini-incep", []int{4, 20, 20})
	in := g.MustAdd(nn.NewConv2D("stem", 4, 6, 3, 1, 1))
	b1 := g.MustAdd(nn.NewConv2D("b1", 6, 4, 1, 1, 0), in)
	b3 := g.MustAdd(nn.NewConv2D("b3r", 6, 3, 1, 1, 0), in)
	b3 = g.MustAdd(nn.NewConv2D("b3", 3, 4, 3, 1, 1), b3)
	b5 := g.MustAdd(nn.NewConv2D("b5r", 6, 3, 1, 1, 0), in)
	b5 = g.MustAdd(nn.NewConv2D("b5", 3, 4, 5, 1, 2), b5)
	bp := g.MustAdd(nn.NewMaxPool2D("bpool", 3, 1, 1), in)
	bp = g.MustAdd(nn.NewConv2D("bp", 6, 4, 1, 1, 0), bp)
	g.MustAdd(nn.NewConcat("cat"), b1, b3, b5, bp)
	g.MustAdd(nn.NewReLU("relu"))
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	g.Init(11)
	units, err := Linearize(g)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Rand(rand.New(rand.NewSource(13)), 1, 4, 20, 20)
	want, err := g.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, parts := range []int{1, 2, 3, 5} {
		got, err := ExecSpatial(units, parts, x)
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		if !tensor.Equal(want, got) {
			t.Fatalf("parts=%d: inception partition mismatch", parts)
		}
	}
}

func TestConcatOpBasics(t *testing.T) {
	c := nn.NewConcat("cat")
	a := filled(1, 2, 3, 3)
	b := filled(2, 1, 3, 3)
	out, err := c.Forward(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !tensor.ShapeEqual(out.Shape(), []int{3, 3, 3}) {
		t.Fatalf("shape %v", out.Shape())
	}
	if out.Data()[0] != 1 || out.Data()[2*3*3] != 2 {
		t.Fatal("concat values wrong")
	}
	if _, err := c.Forward(a); err == nil {
		t.Fatal("expected arity error")
	}
	if _, err := c.OutShape([]int{1, 3, 3}, []int{1, 4, 4}); err == nil {
		t.Fatal("expected spatial mismatch error")
	}
}
