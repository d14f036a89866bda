package nn

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"gillis/internal/par"
	"gillis/internal/tensor"
)

// convShapesHash is the FNV-64a digest of every output bit of the seeded
// convolutions TestConvShapesHash runs: all 420 of them, and the first 105. It
// was recorded on the commit before the slice packer, the in-kernel epilogue
// and the vector row helpers (whose per-row convCols.row and two-pass
// epilogue.apply it exercised) and must never move: a kernel, packing or
// blocking change that alters one output bit of one shape changes it.
var convShapesHash = map[int]string{420: "5801b677b8c8d712", 105: "e10cdbdc971e86d4"}

// TestConvShapesHash walks 420 random convolution shapes — kernel 1/3/5/7,
// stride 1–2, padding 0…k/2+1, up to 100 input channels (so depths to 4900,
// many slices), maps from 3 to 40 pixels a side (blocks that start and end
// anywhere in an output row) — through Forward, ForwardValidHInto, the fused
// forward and a batch of three, and digests all of it, on every tile
// implementation the CPU offers. The Go tiles, fifty times slower under the
// race detector, stop after the first quarter.
func TestConvShapesHash(t *testing.T) {
	defer func(tl *gemmTile) { tile = tl }(tile)
	defer par.SetParallelism(2)()
	forEachTile(t, func(t *testing.T, tl *gemmTile) {
		tile = tl
		shapes := 420
		if tl.asm == nil {
			shapes = 105
		}
		if got := hashConvShapes(t, shapes); got != convShapesHash[shapes] {
			t.Errorf("%d conv shapes hash to fnv64a=%s, pinned %s", shapes, got, convShapesHash[shapes])
		}
	})
}

func hashConvShapes(t *testing.T, shapes int) string {
	rng := rand.New(rand.NewSource(420))
	h := fnv.New64a()
	var word [4]byte
	digest := func(outs ...*tensor.Tensor) {
		for _, o := range outs {
			for _, d := range o.Shape() {
				binary.LittleEndian.PutUint32(word[:], uint32(d))
				h.Write(word[:])
			}
			for _, v := range o.Data() {
				binary.LittleEndian.PutUint32(word[:], math.Float32bits(v))
				h.Write(word[:])
			}
		}
	}
	for shape := 0; shape < shapes; shape++ {
		k := 1 + 2*rng.Intn(4)
		stride := 1 + rng.Intn(2)
		pad := rng.Intn(k/2 + 2)
		inC := 1 + rng.Intn(12)
		if shape%20 == 0 {
			inC = 60 + rng.Intn(41)
		}
		outC := 1 + rng.Intn(40)
		hh, ww := max(k, 3+rng.Intn(38)), max(k, 3+rng.Intn(38))
		c := NewConv2D("c", inC, outC, k, stride, pad)
		c.Init(rng)
		fc := &FusedConv2D{Conv: c, Scale: tensor.Rand(rng, 2, outC), Shift: tensor.Rand(rng, 1, outC), Relu: shape%3 != 0}
		if shape%5 == 0 {
			fc.Scale, fc.Shift = nil, nil
		}
		xs := []*tensor.Tensor{tensor.Rand(rng, 1, inC, hh, ww), tensor.Rand(rng, 1, inC, hh, ww), tensor.Rand(rng, 1, inC, hh, ww)}
		must := func(o *tensor.Tensor, err error) *tensor.Tensor {
			if err != nil {
				t.Fatalf("shape %d (k=%d s=%d p=%d %dx%dx%d -> %d): %v", shape, k, stride, pad, inC, hh, ww, outC, err)
			}
			return o
		}
		digest(must(c.Forward(xs[0])), must(fc.Forward(xs[0])))
		digest(must(forwardValidH(c, xs[0])), must(forwardValidH(fc, xs[0])))
		batch, err := forwardBatch(fc, [][]*tensor.Tensor{xs[:1], xs[1:2], xs[2:]})
		if err != nil {
			t.Fatal(err)
		}
		digest(batch...)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
