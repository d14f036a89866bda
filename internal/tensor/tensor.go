// Package tensor provides a dense float32 tensor library used as the
// numerical substrate for model serving. It plays the role MXNet's NDArray
// plays in the original Gillis implementation: enough functionality to run
// exact forward passes of convolutional and recurrent networks, and to
// slice/concatenate tensors along arbitrary dimensions for partitioned
// execution.
//
// Tensors are immutable-shape and row-major (C order). New, Clone, SliceDim,
// ConcatDim and PadDim return tensors that own their storage — slicing
// copies, which keeps the partitioned-execution code simple and makes bitwise
// output comparison between monolithic and partitioned runs meaningful. Three
// constructors share storage instead, and say so: FromData wraps the caller's
// slice (how a forward's activation arena is handed to operators), Reshape
// keeps the data under a new shape, and Rows is the sub-tensor along
// dimension 0, which row-major order makes one contiguous run. Rows is how an
// operator's channel slice holds its share of an immutable weight tensor
// without copying it; nothing may write through a view of data it does not
// own.
package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
)

// Tensor is a dense row-major float32 tensor.
type Tensor struct {
	shape []int
	data  []float32

	// dims is inline backing for shape: every shape in this codebase has
	// rank <= 4, so storing it in the struct keeps tensor construction at
	// two heap allocations (struct + data), which matters on the kernel
	// hot path where an output tensor is built per forward call.
	dims [4]int
}

// newShaped returns a tensor with the given shape (copied, inline when rank
// permits) wrapping data.
func newShaped(shape []int, data []float32) *Tensor {
	t := &Tensor{data: data}
	if len(shape) <= len(t.dims) {
		t.shape = t.dims[:len(shape)]
		copy(t.shape, shape)
	} else {
		t.shape = cloneInts(shape)
	}
	return t
}

// New returns a zero-filled tensor with the given shape. All dimensions must
// be positive.
func New(shape ...int) *Tensor {
	n, err := checkShape(shape)
	if err != nil {
		panic(err) // programmer error: shapes are static in this codebase
	}
	return newShaped(shape, make([]float32, n))
}

// FromData wraps the given data in a tensor of the given shape. The data
// slice is used directly (not copied); callers must not alias it afterwards.
func FromData(data []float32, shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if len(data) != n {
		return nil, fmt.Errorf("tensor: data length %d does not match shape %v (%d elements)", len(data), cloneInts(shape), n)
	}
	return newShaped(shape, data), nil
}

// Full returns a tensor with every element set to v.
func Full(v float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = v
	}
	return t
}

// Rand returns a tensor with elements drawn uniformly from [-scale, scale)
// using the given source. Deterministic for a fixed seed.
func Rand(rng *rand.Rand, scale float32, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = (rng.Float32()*2 - 1) * scale
	}
	return t
}

// Shape returns a copy of the tensor's shape.
func (t *Tensor) Shape() []int { return cloneInts(t.shape) }

// SameShape reports whether t and o have identical shapes, without the
// copies Shape makes.
func (t *Tensor) SameShape(o *Tensor) bool { return ShapeEqual(t.shape, o.shape) }

// HasShape reports whether t has the given shape, without copying t's.
func (t *Tensor) HasShape(shape []int) bool { return ShapeEqual(t.shape, shape) }

// Rank returns the number of dimensions.
func (t *Tensor) Rank() int { return len(t.shape) }

// Dim returns the size of dimension i.
func (t *Tensor) Dim(i int) int { return t.shape[i] }

// Len returns the total number of elements.
func (t *Tensor) Len() int { return len(t.data) }

// Bytes returns the storage footprint of the tensor's elements in bytes.
func (t *Tensor) Bytes() int64 { return int64(len(t.data)) * 4 }

// Data returns the backing storage. The slice aliases the tensor; callers
// that mutate it mutate the tensor.
func (t *Tensor) Data() []float32 { return t.data }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	d := make([]float32, len(t.data))
	copy(d, t.data)
	return newShaped(t.shape, d)
}

// Reshape returns a tensor sharing t's data with a new shape of equal
// element count.
func (t *Tensor) Reshape(shape ...int) (*Tensor, error) {
	n, err := checkShape(shape)
	if err != nil {
		return nil, err
	}
	if n != len(t.data) {
		return nil, fmt.Errorf("tensor: cannot reshape %v (%d elements) to %v (%d elements)", t.shape, len(t.data), cloneInts(shape), n)
	}
	return newShaped(shape, t.data), nil
}

// Rows returns the sub-tensor spanning [start, end) along dimension 0. It
// shares t's storage: in row-major order those elements are one contiguous
// run, so nothing is copied.
func (t *Tensor) Rows(start, end int) (*Tensor, error) {
	if start < 0 || end > t.shape[0] || start >= end {
		return nil, fmt.Errorf("tensor: rows [%d,%d) out of range for dim 0 of size %d", start, end, t.shape[0])
	}
	inner := len(t.data) / t.shape[0]
	out := newShaped(t.shape, t.data[start*inner:end*inner:end*inner])
	out.shape[0] = end - start
	return out, nil
}

// Offset returns the flat index of the given multi-dimensional index.
func (t *Tensor) Offset(idx ...int) int {
	if len(idx) != len(t.shape) {
		panic(fmt.Sprintf("tensor: index rank %d does not match tensor rank %d", len(idx), len(t.shape)))
	}
	off := 0
	for i, x := range idx {
		if x < 0 || x >= t.shape[i] {
			panic(fmt.Sprintf("tensor: index %v out of bounds for shape %v", idx, t.shape))
		}
		off = off*t.shape[i] + x
	}
	return off
}

// At returns the element at the given index.
func (t *Tensor) At(idx ...int) float32 { return t.data[t.Offset(idx...)] }

// Set assigns the element at the given index.
func (t *Tensor) Set(v float32, idx ...int) { t.data[t.Offset(idx...)] = v }

// SliceDim returns a copy of the sub-tensor spanning [start, end) along
// dimension dim; all other dimensions are kept whole.
func (t *Tensor) SliceDim(dim, start, end int) (*Tensor, error) {
	if dim < 0 || dim >= len(t.shape) {
		return nil, fmt.Errorf("tensor: slice dim %d out of range for rank %d", dim, len(t.shape))
	}
	if start < 0 || end > t.shape[dim] || start >= end {
		return nil, fmt.Errorf("tensor: slice [%d,%d) out of range for dim %d of size %d", start, end, dim, t.shape[dim])
	}
	outShape := cloneInts(t.shape)
	outShape[dim] = end - start
	out := New(outShape...)

	outer := 1
	for i := 0; i < dim; i++ {
		outer *= t.shape[i]
	}
	inner := 1
	for i := dim + 1; i < len(t.shape); i++ {
		inner *= t.shape[i]
	}
	srcStride := t.shape[dim] * inner
	dstStride := (end - start) * inner
	for o := 0; o < outer; o++ {
		src := t.data[o*srcStride+start*inner : o*srcStride+end*inner]
		dst := out.data[o*dstStride : (o+1)*dstStride]
		copy(dst, src)
	}
	return out, nil
}

// ConcatDim concatenates the tensors along dimension dim. All other
// dimensions must agree.
func ConcatDim(dim int, parts ...*Tensor) (*Tensor, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("tensor: concat of zero tensors")
	}
	first := parts[0]
	if dim < 0 || dim >= len(first.shape) {
		return nil, fmt.Errorf("tensor: concat dim %d out of range for rank %d", dim, len(first.shape))
	}
	total := 0
	for _, p := range parts {
		if p.Rank() != first.Rank() {
			return nil, fmt.Errorf("tensor: concat rank mismatch %d vs %d", p.Rank(), first.Rank())
		}
		for i := range p.shape {
			if i != dim && p.shape[i] != first.shape[i] {
				return nil, fmt.Errorf("tensor: concat shape mismatch at dim %d: %v vs %v", i, p.shape, first.shape)
			}
		}
		total += p.shape[dim]
	}
	outShape := cloneInts(first.shape)
	outShape[dim] = total
	out := New(outShape...)

	outer := 1
	for i := 0; i < dim; i++ {
		outer *= first.shape[i]
	}
	inner := 1
	for i := dim + 1; i < len(first.shape); i++ {
		inner *= first.shape[i]
	}
	dstStride := total * inner
	for o := 0; o < outer; o++ {
		at := 0
		for _, p := range parts {
			pn := p.shape[dim] * inner
			copy(out.data[o*dstStride+at:o*dstStride+at+pn], p.data[o*pn:(o+1)*pn])
			at += pn
		}
	}
	return out, nil
}

// PadDim returns a copy of t with `before` zero slices prepended and `after`
// zero slices appended along dimension dim.
func (t *Tensor) PadDim(dim, before, after int) (*Tensor, error) {
	if dim < 0 || dim >= len(t.shape) {
		return nil, fmt.Errorf("tensor: pad dim %d out of range for rank %d", dim, len(t.shape))
	}
	if before < 0 || after < 0 {
		return nil, fmt.Errorf("tensor: negative padding (%d, %d)", before, after)
	}
	if before == 0 && after == 0 {
		return t.Clone(), nil
	}
	outShape := cloneInts(t.shape)
	outShape[dim] += before + after
	out := New(outShape...)

	outer := 1
	for i := 0; i < dim; i++ {
		outer *= t.shape[i]
	}
	inner := 1
	for i := dim + 1; i < len(t.shape); i++ {
		inner *= t.shape[i]
	}
	srcStride := t.shape[dim] * inner
	dstStride := outShape[dim] * inner
	for o := 0; o < outer; o++ {
		copy(out.data[o*dstStride+before*inner:o*dstStride+before*inner+srcStride], t.data[o*srcStride:(o+1)*srcStride])
	}
	return out, nil
}

// AddInPlace adds other element-wise into t. Shapes must match exactly.
func (t *Tensor) AddInPlace(other *Tensor) error {
	if !ShapeEqual(t.shape, other.shape) {
		return fmt.Errorf("tensor: add shape mismatch %v vs %v", t.shape, other.shape)
	}
	for i := range t.data {
		t.data[i] += other.data[i]
	}
	return nil
}

// Equal reports whether the two tensors have identical shapes and bitwise
// identical data.
func Equal(a, b *Tensor) bool {
	if !ShapeEqual(a.shape, b.shape) {
		return false
	}
	for i := range a.data {
		if a.data[i] != b.data[i] {
			return false
		}
	}
	return true
}

// AllClose reports whether the tensors have identical shapes and element-wise
// absolute difference no greater than eps.
func AllClose(a, b *Tensor, eps float32) bool {
	if !ShapeEqual(a.shape, b.shape) {
		return false
	}
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < -eps || d > eps || math.IsNaN(float64(d)) {
			return false
		}
	}
	return true
}

// MaxAbsDiff returns the maximum element-wise absolute difference between two
// same-shaped tensors.
func MaxAbsDiff(a, b *Tensor) (float32, error) {
	if !ShapeEqual(a.shape, b.shape) {
		return 0, fmt.Errorf("tensor: shape mismatch %v vs %v", a.shape, b.shape)
	}
	var m float32
	for i := range a.data {
		d := a.data[i] - b.data[i]
		if d < 0 {
			d = -d
		}
		if d > m {
			m = d
		}
	}
	return m, nil
}

// ShapeEqual reports whether two shapes are identical.
func ShapeEqual(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// NumElements returns the element count of a shape, or an error if any
// dimension is non-positive.
func NumElements(shape []int) (int, error) { return checkShape(shape) }

// SizeBytes returns the fp32 byte footprint of a shape.
func SizeBytes(shape []int) int64 {
	n := 1
	for _, d := range shape {
		n *= d
	}
	return int64(n) * 4
}

// String renders a compact description, e.g. "f32[3 224 224]".
func (t *Tensor) String() string {
	var sb strings.Builder
	sb.WriteString("f32[")
	for i, d := range t.shape {
		if i > 0 {
			sb.WriteByte(' ')
		}
		fmt.Fprintf(&sb, "%d", d)
	}
	sb.WriteByte(']')
	return sb.String()
}

// checkShape returns the element count of shape. Its errors format a copy of
// shape: handing shape itself to fmt would make it escape, and then every
// variadic tensor.New(c, h, w) would heap-allocate its three ints.
func checkShape(shape []int) (int, error) {
	if len(shape) == 0 {
		return 0, fmt.Errorf("tensor: empty shape")
	}
	n := 1
	for _, d := range shape {
		if d <= 0 {
			return 0, fmt.Errorf("tensor: non-positive dimension in shape %v", cloneInts(shape))
		}
		n *= d
	}
	return n, nil
}

func cloneInts(s []int) []int {
	out := make([]int, len(s))
	copy(out, s)
	return out
}
