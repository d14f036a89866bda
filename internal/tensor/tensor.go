// Package tensor provides a dense float32 tensor library used as the
// numerical substrate for model serving. It plays the role MXNet's NDArray
// plays in the original Gillis implementation: enough functionality to run
// exact forward passes of convolutional and recurrent networks, and to
// concatenate partial tensors along any dimension for partitioned execution.
//
// Tensors are immutable-shape and row-major (C order). New and Clone return
// tensors that own their storage, and ConcatDim writes into a destination the
// caller owns. Three constructors share storage instead, and say so: FromData
// wraps the caller's slice (how a forward's activation arena is handed to
// operators, and how the serving runtime hands out pooled buffers), Reshape
// keeps the data under a new shape, and Rows is the sub-tensor along
// dimension 0, which row-major order makes one contiguous run. Rows is how an
// operator's channel slice holds its share of an immutable weight tensor
// without copying it; nothing may write through a view of data it does not
// own.
package tensor

import (
	"fmt"
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

// ConcatDim writes the concatenation of parts along dimension dim into dst,
// which must have their shape with dim summed; all other dimensions must
// agree. It allocates nothing: the serving runtime joins a partitioned
// group's outputs into a buffer it recycles.
func ConcatDim(dst *Tensor, dim int, parts ...*Tensor) error {
	if len(parts) == 0 {
		return fmt.Errorf("tensor: concat of zero tensors")
	}
	if dim < 0 || dim >= len(dst.shape) {
		return fmt.Errorf("tensor: concat dim %d out of range for rank %d", dim, len(dst.shape))
	}
	total := 0
	for _, p := range parts {
		if p.Rank() != dst.Rank() {
			return fmt.Errorf("tensor: concat rank mismatch %d vs %d", p.Rank(), dst.Rank())
		}
		for i := range p.shape {
			if i != dim && p.shape[i] != dst.shape[i] {
				return fmt.Errorf("tensor: concat shape mismatch at dim %d: %v into %v", i, p.shape, dst.shape)
			}
		}
		total += p.shape[dim]
	}
	if total != dst.shape[dim] {
		return fmt.Errorf("tensor: concat of %d along dim %d into %v", total, dim, dst.shape)
	}
	outer := 1
	for i := 0; i < dim; i++ {
		outer *= dst.shape[i]
	}
	inner := 1
	for i := dim + 1; i < len(dst.shape); i++ {
		inner *= dst.shape[i]
	}
	dstStride := total * inner
	for o := 0; o < outer; o++ {
		at := o * dstStride
		for _, p := range parts {
			pn := p.shape[dim] * inner
			at += copy(dst.data[at:at+pn], p.data[o*pn:(o+1)*pn])
		}
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
