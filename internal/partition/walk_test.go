package partition

import (
	"reflect"
	"testing"

	"gillis/internal/models"
	"gillis/internal/tensor"
)

// extentFromScratch is a spatial group's Extent as it was derived before one
// walk priced every group ending at a unit: each part propagates its rows
// back through the whole group on its own, and then accounts forward, unit
// by unit, for the FLOPs of the rows each node computes and its activation
// slab. It is the oracle the walk is held to.
func extentFromScratch(units []*Unit, first, last, parts int) Extent {
	group := units[first : last+1]
	in, out := group[0], group[len(group)-1]
	outH := out.OutHeight()
	var ext Extent
	for _, u := range group {
		ext.GroupFLOPs += u.FLOPs
		ext.WeightBytes += u.ParamBytes
	}
	for i := 0; i < parts; i++ {
		rows := RowRange{Lo: i * outH / parts, Hi: (i + 1) * outH / parts}
		nodeRows := make([][]RowRange, len(group))
		need := rows
		for ui := len(group) - 1; ui >= 0; ui-- {
			nodeRows[ui] = make([]RowRange, group[ui].Sub.Len())
			_, need = backpropUnit(group[ui], need, nodeRows[ui])
		}
		var flops, act int64
		for ui, u := range group {
			shapes := u.NodeShapes()
			for _, node := range u.Sub.Nodes() {
				if h := int64(shapes[node.ID][1]); h > 0 {
					r := int64(nodeRows[ui][node.ID].Len())
					flops += u.nodeFLOPs[node.ID] * r / h
					act = max(act, tensor.SizeBytes(shapes[node.ID])*r/h)
				}
			}
		}
		p := PartExtent{
			FLOPs:       flops,
			WeightBytes: ext.WeightBytes,
			InBytes:     rowBytes(in.InShape) * int64(need.clip(heightOf(in.InShape)).Len()),
			OutBytes:    rowBytes(out.OutShape) * int64(rows.Len()),
		}
		ext.PerPart = append(ext.PerPart, p)
		ext.TotalFLOPs += p.FLOPs
		ext.InBytesTotal += p.InBytes
		ext.OutBytesTotal += p.OutBytes
		ext.ActBytes = max(ext.ActBytes, act)
	}
	return ext
}

// TestSpatialWalkMatchesGroupExtent walks back from every unit of resnet34,
// vgg16 and resnet50 as far as the units stay spatial, at 1, 2, 3, 4, 8 and
// 16 parts, and holds every Extent the walk emits, one per group
// units[f..last], to GroupExtent of that group and to the from-scratch
// derivation: reflect.DeepEqual, part by part. A walk started below a unit
// that is not spatial, or at a unit with fewer output rows than parts, fails
// as GroupExtent does.
func TestSpatialWalkMatchesGroupExtent(t *testing.T) {
	for _, name := range []string{"resnet34", "vgg16", "resnet50"} {
		g, err := models.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		units := linearized(t, g)
		groups := 0
		for _, parts := range []int{1, 2, 3, 4, 8, 16} {
			opt := Option{Dim: DimSpatial, Parts: parts}
			for last := range units {
				refused := func(first int) {
					t.Helper()
					_, want := GroupExtent(units, first, last, opt)
					got := SpatialExtents(units, first, last, parts, func(int, Extent) {
						t.Errorf("%s: units %d..%d ×%d: the walk emitted an Extent of a group GroupExtent refuses", name, first, last, parts)
					})
					if want == nil || got == nil || got.Error() != want.Error() {
						t.Errorf("%s: units %d..%d ×%d: walk error %v, GroupExtent error %v", name, first, last, parts, got, want)
					}
				}
				if !units[last].Spatial || units[last].OutHeight() < parts {
					refused(last)
					continue
				}
				lowest := last
				for lowest > 0 && units[lowest-1].Spatial {
					lowest--
				}
				if lowest > 0 {
					refused(lowest - 1)
				}
				next := last
				err := SpatialExtents(units, lowest, last, parts, func(f int, ext Extent) {
					if f != next {
						t.Fatalf("%s: walk back from %d ×%d emitted unit %d, want %d", name, last, parts, f, next)
					}
					next--
					groups++
					want, err := GroupExtent(units, f, last, opt)
					if err != nil {
						t.Fatal(err)
					}
					if !reflect.DeepEqual(ext, want) {
						t.Errorf("%s: units %d..%d ×%d: walk %+v, GroupExtent %+v", name, f, last, parts, ext, want)
					}
					if scratch := extentFromScratch(units, f, last, parts); !reflect.DeepEqual(ext, scratch) {
						t.Errorf("%s: units %d..%d ×%d: walk %+v, from scratch %+v", name, f, last, parts, ext, scratch)
					}
				})
				if err != nil {
					t.Fatal(err)
				}
				if next != lowest-1 {
					t.Errorf("%s: walk back from %d ×%d stopped after unit %d, want %d", name, last, parts, next+1, lowest)
				}
			}
		}
		t.Logf("%s: %d units, %d spatial groups", name, len(units), groups)
		if groups == 0 {
			t.Errorf("%s: no spatial group walked", name)
		}
	}
}
