package modelio

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"gillis/internal/graph"
	"gillis/internal/models"
	"gillis/internal/tensor"
)

// zooEntries is every model family and variant the models.ByName zoo
// constructs — the full set the paper evaluates (§V-A) plus the two
// branch-model families added for the merging experiments.
var zooEntries = []string{
	"vgg11", "vgg16", "vgg19",
	"resnet34", "resnet50", "resnet101",
	"wrn34-2", "wrn50-2", "wrn50-4", "wrn101-2",
	"rnn2", "rnn4", "rnn6", "rnn8",
	"inception-mini", "mobilenet-mini",
	// Serving-mesh catalog fillers: the same two small families at
	// distinct parameter sizes.
	"mobilenet-mini-w2", "mobilenet-mini-w3",
	"rnn-tiny2", "rnn-tiny4", "rnn-tiny6",
}

// TestZooRoundtripEveryEntry exports every zoo model to a file and loads
// it back with LoadFile, and requires an identical graph back: same name,
// input shape, node count, and per-node operator kind, name, wiring, and
// parameter count. Models of up to weightBytes of parameters go with their
// weights, and the loaded graph, fused as gillis-server serves it, must
// forward bit-equal to the saved one. Their weights alias a read-only
// mapping of the file, so the fusion or forward that wrote to one would
// fault the test binary. Larger models go structure-only: their weights are
// 0.18–1.5 GB.
func TestZooRoundtripEveryEntry(t *testing.T) {
	weightBytes := int64(128 << 20)
	if testing.Short() {
		weightBytes = 32 << 20
	}
	for _, name := range zooEntries {
		t.Run(name, func(t *testing.T) {
			g, err := models.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			withWeights := g.ParamBytes() <= weightBytes
			if withWeights {
				g.Init(1)
			}
			path := filepath.Join(t.TempDir(), name+".glsm")
			if err := SaveFile(path, g, withWeights); err != nil {
				t.Fatal(err)
			}
			g2, err := LoadFile(path)
			if err != nil {
				t.Fatal(err)
			}

			if g2.Name != g.Name {
				t.Errorf("name: got %q, want %q", g2.Name, g.Name)
			}
			if !tensor.ShapeEqual(g2.InShape(), g.InShape()) {
				t.Errorf("input shape: got %v, want %v", g2.InShape(), g.InShape())
			}
			if g2.Len() != g.Len() {
				t.Fatalf("node count: got %d, want %d", g2.Len(), g.Len())
			}
			for i, n := range g.Nodes() {
				n2 := g2.Node(i)
				if n2.Op.Kind() != n.Op.Kind() {
					t.Errorf("node %d kind: got %v, want %v", i, n2.Op.Kind(), n.Op.Kind())
				}
				if n2.Op.Name() != n.Op.Name() {
					t.Errorf("node %d name: got %q, want %q", i, n2.Op.Name(), n.Op.Name())
				}
				if fmt.Sprintf("%v", n2.Inputs) != fmt.Sprintf("%v", n.Inputs) {
					t.Errorf("node %d inputs: got %v, want %v", i, n2.Inputs, n.Inputs)
				}
				if n2.Op.ParamCount() != n.Op.ParamCount() {
					t.Errorf("node %d (%s) params: got %d, want %d",
						i, n.Op.Name(), n2.Op.ParamCount(), n.Op.ParamCount())
				}
			}
			if g2.ParamCount() != g.ParamCount() {
				t.Errorf("total params: got %d, want %d", g2.ParamCount(), g.ParamCount())
			}
			f1, err := g.FLOPs()
			if err != nil {
				t.Fatal(err)
			}
			f2, err := g2.FLOPs()
			if err != nil {
				t.Fatal(err)
			}
			if f1 != f2 {
				t.Errorf("FLOPs: got %d, want %d", f2, f1)
			}
			if !withWeights {
				return
			}
			fused, _, err := graph.Fuse(g2)
			if err != nil {
				t.Fatal(err)
			}
			x := tensor.Rand(rand.New(rand.NewSource(2)), 1, g.InShape()...)
			want, err := g.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			got, err := fused.Forward(x)
			if err != nil {
				t.Fatal(err)
			}
			if !tensor.Equal(want, got) {
				t.Error("the loaded graph, fused, does not forward bit-equal to the saved one")
			}
		})
	}
}
