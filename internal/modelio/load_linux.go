package modelio

import (
	"fmt"
	"os"
	"syscall"

	"gillis/internal/graph"
)

// LoadFile reads a graph from path, which must be a regular file. The file
// is mapped private, read-only and populated, and the weights alias the
// mapping: a load copies nothing into the heap. A writable private mapping
// would make MAP_POPULATE copy every page, so only a big-endian host, which
// swaps the weights' bytes in place, maps it writable. A graph's weights
// outlive it in every graph built from it (fused graphs, part graphs), so
// the mapping of a file that loads is never unmapped.
func LoadFile(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if !fi.Mode().IsRegular() {
		return nil, fmt.Errorf("modelio: %s is not a regular file", path)
	}
	size := int(fi.Size())
	if int64(size) != fi.Size() {
		return nil, fmt.Errorf("modelio: %s: %d bytes is more than this host can map", path, fi.Size())
	}
	if size == 0 {
		return parse(nil)
	}
	prot := syscall.PROT_READ
	if bigEndian {
		prot |= syscall.PROT_WRITE
	}
	b, err := syscall.Mmap(int(f.Fd()), 0, size, prot, syscall.MAP_PRIVATE|syscall.MAP_POPULATE)
	if err != nil {
		return nil, fmt.Errorf("modelio: map %s: %w", path, err)
	}
	g, err := parse(b)
	if err != nil {
		// Nothing the failed parse made is returned, so nothing aliases b.
		syscall.Munmap(b)
		return nil, err
	}
	return g, nil
}
