package modelio

import (
	"bytes"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/nn"
)

// FuzzLoad hardens the ONNX-lite reader against corrupt inputs: it must
// return an error or a valid graph, never panic or over-allocate.
func FuzzLoad(f *testing.F) {
	// Seed with a valid archive and a few mutations.
	g := graph.New("seed", []int{2, 4, 4})
	g.MustAdd(nn.NewConv2D("c", 2, 3, 3, 1, 1))
	g.MustAdd(nn.NewReLU("r"))
	g.Init(1)
	var buf bytes.Buffer
	if err := Save(&buf, g, true); err != nil {
		f.Fatal(err)
	}
	valid := buf.Bytes()
	f.Add(valid)
	// A fused graph: kinds FusedConv2D (with and without bn) and FusedDense.
	_, fused := fusedModel(f)
	var fbuf bytes.Buffer
	if err := Save(&fbuf, fused, true); err != nil {
		f.Fatal(err)
	}
	f.Add(fbuf.Bytes())
	f.Add(valid[:len(valid)/2])
	f.Add([]byte("GLSM"))
	f.Add([]byte("GLSM\x00\x00\x00\x10{\"version\":1}"))
	f.Add([]byte{})
	// A 166-byte file declaring a 16384×16384 weight it does not hold.
	f.Add(forgedDense())

	f.Fuzz(func(t *testing.T, data []byte) {
		loaded, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Anything that loads must be a valid graph.
		if verr := loaded.Validate(); verr != nil {
			t.Fatalf("Load returned invalid graph: %v", verr)
		}
	})
}
