package nn

import (
	"fmt"
	"math/rand"

	"gillis/internal/tensor"
)

// KindTakeLast identifies the TakeLast operator.
const KindTakeLast Kind = 100

// TakeLast extracts the final time step of a [T, H] sequence as a rank-1
// tensor of size H. It bridges recurrent stacks to dense classification
// heads.
type TakeLast struct {
	OpName string
}

var _ Aliaser = (*TakeLast)(nil)

// NewTakeLast constructs a TakeLast operator.
func NewTakeLast(name string) *TakeLast { return &TakeLast{OpName: name} }

// Name implements Op.
func (l *TakeLast) Name() string { return l.OpName }

// Kind implements Op.
func (l *TakeLast) Kind() Kind { return KindTakeLast }

// OutShape implements Op.
func (l *TakeLast) OutShape(in ...[]int) ([]int, error) {
	if err := checkOneInput("TakeLast", len(in)); err != nil {
		return nil, err
	}
	if err := checkRank("TakeLast", in[0], 2); err != nil {
		return nil, err
	}
	return []int{in[0][1]}, nil
}

// FLOPs implements Op.
func (l *TakeLast) FLOPs(in ...[]int) int64 { return 0 }

// ParamCount implements Op.
func (l *TakeLast) ParamCount() int64 { return 0 }

// Init implements Op.
func (l *TakeLast) Init(*rand.Rand) {}

// Initialized implements Op.
func (l *TakeLast) Initialized() bool { return true }

// Forward implements Op.
func (l *TakeLast) Forward(in ...*tensor.Tensor) (*tensor.Tensor, error) { return forwardNew(l, in) }

// ForwardInto implements Op: a copy of the last row.
func (l *TakeLast) ForwardInto(dst *tensor.Tensor, in ...*tensor.Tensor) error {
	if err := checkOneInput("TakeLast", len(in)); err != nil {
		return err
	}
	row, err := l.Alias(in[0])
	if err != nil {
		return err
	}
	if err := checkDst(l, dst, row.Len()); err != nil {
		return err
	}
	copy(dst.Data(), row.Data())
	return nil
}

// Alias implements Aliaser: the last row of a [T, H] sequence is its last H
// elements.
func (l *TakeLast) Alias(in *tensor.Tensor) (*tensor.Tensor, error) {
	if in.Rank() != 2 {
		return nil, fmt.Errorf("nn: TakeLast %q expects [T,H] input, got %v", l.OpName, in.Shape())
	}
	row, err := in.Rows(in.Dim(0)-1, in.Dim(0))
	if err != nil {
		return nil, err
	}
	return row.Reshape(in.Dim(1))
}
