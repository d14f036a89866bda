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
	if v := x.data[2]; v != 3 {
		t.Fatalf("FromData must wrap the data as given: element 2 is %v", v)
	}
}

func TestReshape(t *testing.T) {
	x := New(2, 6)
	y, err := x.Reshape(3, 4)
	if err != nil {
		t.Fatal(err)
	}
	y.data[1] = 5
	if x.data[1] != 5 {
		t.Fatal("Reshape must share data")
	}
	if _, err := x.Reshape(5, 5); err == nil {
		t.Fatal("expected element-count mismatch error")
	}
}

func TestConcatDim(t *testing.T) {
	a, _ := FromData([]float32{1, 2}, 1, 2)
	b, _ := FromData([]float32{3, 4, 5, 6}, 2, 2)
	cat, _ := FromData([]float32{-1, -1, -1, -1, -1, -1}, 3, 2)
	if err := ConcatDim(cat, 0, a, b); err != nil {
		t.Fatal(err)
	}
	want, _ := FromData([]float32{1, 2, 3, 4, 5, 6}, 3, 2)
	if !Equal(cat, want) {
		t.Fatalf("concat got %v", cat.Data())
	}
	if err := ConcatDim(cat, 1, a, b); err == nil {
		t.Fatal("expected shape mismatch error")
	}
	if err := ConcatDim(New(4, 2), 0, a, b); err == nil {
		t.Fatal("expected destination mismatch error")
	}
	if err := ConcatDim(cat, 2, a, b); err == nil {
		t.Fatal("expected bad-dim error")
	}
	if err := ConcatDim(cat, 0); err == nil {
		t.Fatal("expected empty-concat error")
	}
	if err := ConcatDim(cat, 0, a, New(2)); err == nil {
		t.Fatal("expected rank mismatch error")
	}
	if n := testing.AllocsPerRun(10, func() { _ = ConcatDim(cat, 0, a, b) }); n != 0 {
		t.Fatalf("ConcatDim allocates %v objects", n)
	}
}

// TestShapeHelpers covers the shape predicates and sizes other packages
// lean on, a rank above the inline four, and the refusals of a bad length or
// dimension.
func TestShapeHelpers(t *testing.T) {
	x := New(2, 3, 4)
	if !x.HasShape([]int{2, 3, 4}) || x.HasShape([]int{2, 3}) || ShapeEqual([]int{1, 2}, []int{1, 3}) {
		t.Fatal("shape comparison wrong")
	}
	if n, err := NumElements([]int{2, 3, 4}); n != 24 || err != nil {
		t.Fatalf("NumElements = %d, %v", n, err)
	}
	if _, err := NumElements([]int{2, 0}); err == nil {
		t.Fatal("a zero dimension accepted")
	}
	if b := SizeBytes([]int{2, 3, 4}); b != 96 {
		t.Fatalf("SizeBytes = %d", b)
	}
	if s := x.String(); s != "f32[2 3 4]" {
		t.Fatalf("String = %q", s)
	}
	other := New(2, 3, 4)
	other.data[5] = 1
	if Equal(x, New(2, 3, 5)) || Equal(x, other) || !Equal(x, New(2, 3, 4)) {
		t.Fatal("Equal wrong")
	}
	if _, err := FromData(make([]float32, 5), 2, 3); err == nil {
		t.Fatal("a data length off the shape accepted")
	}
	if y := New(1, 2, 1, 2, 1); y.Rank() != 5 || y.Len() != 4 || y.Dim(3) != 2 {
		t.Fatalf("rank-5 tensor %v", y)
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

// chunk copies x's [lo, hi) along dim, all other dimensions whole.
func chunk(x *Tensor, dim, lo, hi int) *Tensor {
	shape := x.Shape()
	outer, inner := 1, 1
	for i := range shape {
		if i < dim {
			outer *= shape[i]
		} else if i > dim {
			inner *= shape[i]
		}
	}
	var data []float32
	for o := 0; o < outer; o++ {
		data = append(data, x.Data()[(o*shape[dim]+lo)*inner:(o*shape[dim]+hi)*inner]...)
	}
	shape[dim] = hi - lo
	out, err := FromData(data, shape...)
	if err != nil {
		panic(err)
	}
	return out
}

// Property: cutting a tensor into contiguous chunks along any dim and
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
			parts = append(parts, chunk(x, dim, at, end))
			at = end
		}
		back := New(shape...)
		if err := ConcatDim(back, dim, parts...); err != nil {
			return false
		}
		return Equal(x, back)
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
// the same elements a copy of them holds, on the parent's storage.
func TestRowsSharesStorage(t *testing.T) {
	x := Rand(rand.New(rand.NewSource(3)), 1, 6, 4, 5)
	v, err := x.Rows(2, 5)
	if err != nil {
		t.Fatal(err)
	}
	c := chunk(x, 0, 2, 5)
	if !Equal(v, c) {
		t.Fatalf("Rows(2,5) = %v, differs from a copy of those rows = %v", v, c)
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
