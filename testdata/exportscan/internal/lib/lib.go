// Package lib is the fixture of TestUnreadExportsOnFixture: one name of each
// kind the scan must tell apart.
package lib

// Dead is read by nothing: the one name the scan reports.
func Dead() {}

// Square is read through an interface that main declares.
type Square struct {
	Side float64 // read by Area through a selector
}

// Area is called only through main's shape interface.
func (s Square) Area() float64 { return s.Side * s.Side }

// Stack is used only as an instantiation.
type Stack[T any] struct{ items []T }

// Add is called only on a Stack[int].
func (s *Stack[T]) Add(v T) { s.items = append(s.items, v) }
