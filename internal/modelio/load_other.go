//go:build !linux

package modelio

import (
	"os"

	"gillis/internal/graph"
)

// LoadFile reads a graph from path. The weights alias the file's bytes,
// read into one heap buffer.
func LoadFile(path string) (*graph.Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parse(b)
}
