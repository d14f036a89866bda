package runtime

import (
	"fmt"
	"reflect"
)

// PooledTypes are the records a Deployment recycles (pass.go): no Result,
// gateway Outcome or trace may hold one.
var PooledTypes = []reflect.Type{
	reflect.TypeFor[pass](),
	reflect.TypeFor[request](),
	reflect.TypeFor[response](),
	reflect.TypeFor[caller](),
}

// FreeRecords counts the records on d's free lists by kind. A record put on
// its list twice makes the list loop back on itself, which it reports as an
// error.
func (d *Deployment) FreeRecords() (map[string]int, error) {
	n := make(map[string]int)
	seen := make(map[any]bool)
	put := func(kind string, rec any) error {
		if seen[rec] {
			return fmt.Errorf("a %s is on its free list twice (after %d)", kind, n[kind])
		}
		seen[rec] = true
		n[kind]++
		return nil
	}
	for r := d.passes; r != nil; r = r.next {
		if err := put("pass", r); err != nil {
			return n, err
		}
	}
	for r := d.responses; r != nil; r = r.next {
		if err := put("worker reply", r); err != nil {
			return n, err
		}
	}
	return n, nil
}
