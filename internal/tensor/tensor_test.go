package tensor

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewAndShape(t *testing.T) {
	x := New(2, 3, 4)
	if x.Rank() != 3 || x.Dim(0) != 2 || x.Dim(1) != 3 || x.Dim(2) != 4 {
		t.Fatalf("unexpected shape %v", x.Shape())
	}
	if x.Len() != 24 || x.Bytes() != 96 {
		t.Fatalf("unexpected len/bytes: %d/%d", x.Len(), x.Bytes())
	}
	for _, v := range x.Data() {
		if v != 0 {
			t.Fatal("New must zero-fill")
		}
	}
}

func TestShapeReturnsCopy(t *testing.T) {
	x := New(2, 3)
	s := x.Shape()
	s[0] = 99
	if x.Dim(0) != 2 {
		t.Fatal("Shape must return a copy")
	}
}

func TestFromData(t *testing.T) {
	if _, err := FromData([]float32{1, 2, 3}, 2, 2); err == nil {
		t.Fatal("expected length mismatch error")
	}
	x, err := FromData([]float32{1, 2, 3, 4}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if x.At(1, 0) != 3 {
		t.Fatalf("row-major layout broken: got %v", x.At(1, 0))
	}
}

func TestAtSetOffset(t *testing.T) {
	x := New(2, 3, 4)
	x.Set(7, 1, 2, 3)
	if x.At(1, 2, 3) != 7 {
		t.Fatal("At/Set roundtrip failed")
	}
	if x.Offset(1, 2, 3) != 1*12+2*4+3 {
		t.Fatalf("offset wrong: %d", x.Offset(1, 2, 3))
	}
}

func TestOutOfBoundsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-bounds index")
		}
	}()
	New(2, 2).At(2, 0)
}

func TestFullAndClone(t *testing.T) {
	x := Full(3.5, 2, 2)
	y := x.Clone()
	y.Set(0, 0, 0)
	if x.At(0, 0) != 3.5 {
		t.Fatal("Clone must deep-copy")
	}
}

func TestReshape(t *testing.T) {
	x := New(2, 6)
	y, err := x.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	y.Set(5, 0, 1)
	if x.At(0, 1) != 5 {
		t.Fatal("Reshape must share data")
	}
	if _, err := x.Reshape(5, 5); err == nil {
		t.Fatal("expected element-count mismatch error")
	}
}

func TestSliceDim(t *testing.T) {
	x, _ := FromData([]float32{
		1, 2, 3,
		4, 5, 6,
		7, 8, 9,
	}, 3, 3)
	mid, err := x.SliceDim(0, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromData([]float32{4, 5, 6}, 1, 3)
	if !Equal(mid, want) {
		t.Fatalf("row slice got %v", mid.Data())
	}
	col, err := x.SliceDim(1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	wantCol, _ := FromData([]float32{3, 6, 9}, 3, 1)
	if !Equal(col, wantCol) {
		t.Fatalf("col slice got %v", col.Data())
	}
	if _, err := x.SliceDim(0, 2, 2); err == nil {
		t.Fatal("expected empty-slice error")
	}
	if _, err := x.SliceDim(3, 0, 1); err == nil {
		t.Fatal("expected bad-dim error")
	}
}

func TestConcatDim(t *testing.T) {
	a, _ := FromData([]float32{1, 2}, 1, 2)
	b, _ := FromData([]float32{3, 4, 5, 6}, 2, 2)
	cat, err := ConcatDim(0, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromData([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	if !Equal(cat, want) {
		t.Fatalf("concat got %v", cat.Data())
	}
	if _, err := ConcatDim(1, a, b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if _, err := ConcatDim(0); err == nil {
		t.Fatal("expected empty-concat error")
	}
}

func TestPadDim(t *testing.T) {
	x, _ := FromData([]float32{1, 2, 3, 4}, 2, 2)
	p, err := x.PadDim(0, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := FromData([]float32{0, 0, 1, 2, 3, 4, 0, 0}, 4, 2)
	if !Equal(p, want) {
		t.Fatalf("pad got %v", p.Data())
	}
	if _, err := x.PadDim(0, -1, 0); err == nil {
		t.Fatal("expected negative-pad error")
	}
}

func TestAddInPlace(t *testing.T) {
	a, _ := FromData([]float32{1, 2}, 2)
	b, _ := FromData([]float32{10, 20}, 2)
	if err := a.AddInPlace(b); err != nil {
		t.Fatal(err)
	}
	if a.At(1) != 22 {
		t.Fatalf("add got %v", a.Data())
	}
	c := New(3)
	if err := a.AddInPlace(c); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}

func TestAllCloseAndMaxAbsDiff(t *testing.T) {
	a, _ := FromData([]float32{1, 2}, 2)
	b, _ := FromData([]float32{1.0005, 2}, 2)
	if !AllClose(a, b, 1e-3) {
		t.Fatal("expected close")
	}
	if AllClose(a, b, 1e-5) {
		t.Fatal("expected not close")
	}
	d, err := MaxAbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d < 4e-4 || d > 6e-4 {
		t.Fatalf("unexpected max diff %v", d)
	}
}

func TestRandDeterministic(t *testing.T) {
	a := Rand(rand.New(rand.NewSource(1)), 1, 4, 4)
	b := Rand(rand.New(rand.NewSource(1)), 1, 4, 4)
	if !Equal(a, b) {
		t.Fatal("Rand must be deterministic for a fixed seed")
	}
	c := Rand(rand.New(rand.NewSource(2)), 1, 4, 4)
	if Equal(a, c) {
		t.Fatal("different seeds should differ")
	}
}

// Property: slicing a tensor into contiguous chunks along any dim and
// concatenating them reproduces the original exactly.
func TestSliceConcatRoundtrip(t *testing.T) {
	f := func(seed int64, dimSel, cuts uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(5), 1 + rng.Intn(5), 1 + rng.Intn(5)}
		x := Rand(rng, 10, shape...)
		dim := int(dimSel) % 3
		n := shape[dim]
		k := 1 + int(cuts)%3
		if k > n {
			k = n
		}
		var parts []*Tensor
		at := 0
		for i := 0; i < k; i++ {
			end := at + n/k
			if i == k-1 {
				end = n
			}
			p, err := x.SliceDim(dim, at, end)
			if err != nil {
				return false
			}
			parts = append(parts, p)
			at = end
		}
		back, err := ConcatDim(dim, parts...)
		if err != nil {
			return false
		}
		return Equal(x, back)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: PadDim then SliceDim of the original region is identity.
func TestPadSliceIdentity(t *testing.T) {
	f := func(seed int64, before, after uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		shape := []int{1 + rng.Intn(4), 1 + rng.Intn(4)}
		x := Rand(rng, 1, shape...)
		b, a := int(before)%4, int(after)%4
		p, err := x.PadDim(0, b, a)
		if err != nil {
			return false
		}
		got, err := p.SliceDim(0, b, b+shape[0])
		if err != nil {
			return false
		}
		return Equal(x, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestConstructorsDoNotAllocateTheShape pins what a tensor costs to make: New
// is the struct and the data, FromData and Reshape the struct alone. A
// variadic shape that escapes (through an error's %v, say) would add an
// allocation of the three ints to every operator output.
func TestConstructorsDoNotAllocateTheShape(t *testing.T) {
	data := make([]float32, 3*5*7)
	base := New(3, 5, 7)
	var sink *Tensor
	for name, c := range map[string]struct {
		make func() *Tensor
		want float64
	}{
		"New":      {func() *Tensor { return New(3, 5, 7) }, 2},
		"FromData": {func() *Tensor { x, _ := FromData(data, 3, 5, 7); return x }, 1},
		"Reshape":  {func() *Tensor { x, _ := base.Reshape(7, 15); return x }, 1},
		"Rows":     {func() *Tensor { x, _ := base.Rows(1, 3); return x }, 1},
	} {
		if got := testing.AllocsPerRun(100, func() { sink = c.make() }); got != c.want {
			t.Errorf("%s: %v allocations, want %v", name, got, c.want)
		}
	}
	_ = sink
	defer func() {
		if recover() == nil {
			t.Error("New with a zero dimension did not panic")
		}
	}()
	New(3, 0, 7)
}

// Rows is the one slice that shares: rows [start, end) of dimension 0 are
// the same elements SliceDim(0, ...) copies, on the parent's storage.
func TestRowsSharesStorage(t *testing.T) {
	x := Rand(rand.New(rand.NewSource(3)), 1, 6, 4, 5)
	v, err := x.Rows(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c, err := x.SliceDim(0, 2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(v, c) {
		t.Fatalf("Rows(2,5) = %v, differs from SliceDim(0,2,5) = %v", v, c)
	}
	if &v.Data()[0] != &x.Data()[2*20] || cap(v.Data()) != 3*20 {
		t.Fatal("Rows does not view exactly the parent's rows")
	}
	if !v.SameShape(c) || v.SameShape(x) {
		t.Fatal("SameShape disagrees with the shapes")
	}
	for _, r := range [][2]int{{-1, 2}, {2, 2}, {3, 2}, {0, 7}} {
		if _, err := x.Rows(r[0], r[1]); err == nil {
			t.Errorf("Rows(%d,%d) of 6 rows accepted", r[0], r[1])
		}
	}
}
