package partition

import (
	"fmt"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/tensor"
)

// RowRange is a half-open interval [Lo, Hi) of feature-map rows.
type RowRange struct {
	Lo, Hi int
}

// Len returns the number of rows in the range.
func (r RowRange) Len() int { return r.Hi - r.Lo }

// union returns the smallest range covering both (empty ranges ignored).
func (r RowRange) union(o RowRange) RowRange {
	if r.Len() <= 0 {
		return o
	}
	if o.Len() <= 0 {
		return r
	}
	if o.Lo < r.Lo {
		r.Lo = o.Lo
	}
	if o.Hi > r.Hi {
		r.Hi = o.Hi
	}
	return r
}

// clip restricts the range to [0, h).
func (r RowRange) clip(h int) RowRange {
	if r.Lo < 0 {
		r.Lo = 0
	}
	if r.Hi > h {
		r.Hi = h
	}
	if r.Hi < r.Lo {
		r.Hi = r.Lo
	}
	return r
}

// inRangeForOut returns the unpadded input rows required to compute output
// rows out of an op with height kernel k, stride s, padding p:
// [out.Lo*s - p, (out.Hi-1)*s + k - p).
func inRangeForOut(out RowRange, k, s, p int) RowRange {
	return RowRange{Lo: out.Lo*s - p, Hi: (out.Hi-1)*s + k - p}
}

// PartSlice describes one spatial partition of a layer group: which rows of
// the group input it needs, which rows of the group output it produces, and
// its exact compute/transfer extents (including halo redundancy).
type PartSlice struct {
	InRows  RowRange
	OutRows RowRange
	// FLOPs is the exact work of this partition, including redundant halo
	// computation in intermediate layers.
	FLOPs int64
	// InBytes and OutBytes are the partition's payload sizes.
	InBytes, OutBytes int64
	// ActBytes is the peak activation slab footprint during execution.
	ActBytes int64

	units []unitSlice // per-unit execution metadata
}

// unitSlice carries the per-node row ranges of one unit for one partition.
type unitSlice struct {
	inRows RowRange   // clipped rows of the unit input this partition holds
	nodes  []RowRange // clipped output rows to compute, per node ID
}

// SpatialSlices computes the partition slices for parallelizing the unit
// group `units` across `parts` partitions along the height axis. Every unit
// must be Spatial and the group output must have at least `parts` rows.
func SpatialSlices(units []*Unit, parts int) ([]PartSlice, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: empty group")
	}
	return walkSpatial(units, 0, len(units)-1, parts, true, nil)
}

// SpatialExtents prices every spatial group that ends at last, from one
// backward walk: for f = last, last-1, …, first it calls emit(f, ext) with
// the Extent of units[f..last] split parts ways along height, which is
// what GroupExtent returns for that group. The errors are GroupExtent's on
// units[first..last].
func SpatialExtents(units []*Unit, first, last, parts int, emit func(f int, ext Extent)) error {
	if first < 0 || last >= len(units) || first > last {
		return fmt.Errorf("partition: bad group [%d,%d]", first, last)
	}
	_, err := walkSpatial(units, first, last, parts, false, emit)
	return err
}

// walkSpatial splits units[last]'s output rows into parts equal slices and
// walks the group backward from last to first, one unit at a time: each
// part's required rows propagate through the unit's subgraph (backpropUnit)
// and the rows each node computes add their share of its FLOPs and its
// activation slab to the part. After unit f every part holds the InRows,
// FLOPs, ActBytes and payloads of the group units[f..last], and, emit being
// set, emit(f, …) gets that group's Extent. All of it is integer sums and
// maxima, so where the walk starts and stops changes nothing. With keep set
// the parts returned carry each unit's row ranges, what PartSlice.Graph
// lowers; otherwise one scratch slab serves every unit.
func walkSpatial(units []*Unit, first, last, parts int, keep bool, emit func(int, Extent)) ([]PartSlice, error) {
	if parts < 1 {
		return nil, fmt.Errorf("partition: parts %d < 1", parts)
	}
	nodes, widest := 0, 0
	for _, u := range units[first : last+1] {
		if !u.Spatial {
			return nil, fmt.Errorf("partition: unit %d (%s) is not spatially partitionable", u.Index, u.Name)
		}
		nodes += u.Sub.Len()
		widest = max(widest, u.Sub.Len())
	}
	out := units[last]
	outH := out.OutHeight()
	if outH < parts {
		return nil, fmt.Errorf("partition: group output height %d < %d parts", outH, parts)
	}
	ps := make([]PartSlice, parts)
	need := make([]RowRange, parts) // rows of the current unit's input each part needs
	for i := range ps {
		rows := RowRange{Lo: i * outH / parts, Hi: (i + 1) * outH / parts}
		ps[i] = PartSlice{OutRows: rows, OutBytes: rowBytes(out.OutShape) * int64(rows.Len())}
		need[i] = rows
	}
	var slab []RowRange
	if keep {
		slab = make([]RowRange, nodes*parts)
		for i := range ps {
			ps[i].units = make([]unitSlice, last-first+1)
		}
	} else {
		slab = make([]RowRange, widest)
	}
	var weights, groupFLOPs int64
	for f := last; f >= first; f-- {
		u := units[f]
		weights += u.ParamBytes
		groupFLOPs += u.FLOPs
		n := u.Sub.Len()
		for i := range ps {
			rows := slab[:n:n]
			if keep {
				slab = slab[n:]
			} else {
				clear(rows)
			}
			us, inNeed := backpropUnit(u, need[i], rows)
			flops, act := u.rowsCost(rows)
			p := &ps[i]
			p.FLOPs += flops
			p.ActBytes = max(p.ActBytes, act)
			p.InRows = us.inRows
			p.InBytes = rowBytes(u.InShape) * int64(us.inRows.Len())
			need[i] = inNeed
			if keep {
				p.units[f-first] = us
			}
		}
		if emit != nil {
			emit(f, spatialExtent(ps, weights, groupFLOPs))
		}
	}
	return ps, nil
}

// rowsCost is what computing rows[id] of each node of the unit costs: FLOPs
// in proportion to the node's rows, and the largest node slab.
func (u *Unit) rowsCost(rows []RowRange) (flops, act int64) {
	for id, shape := range u.shapes {
		if h := int64(shape[1]); h > 0 {
			r := int64(rows[id].Len())
			flops += u.nodeFLOPs[id] * r / h
			act = max(act, tensor.SizeBytes(shape)*r/h)
		}
	}
	return flops, act
}

// backpropUnit propagates a required output range through one unit's
// subgraph, returning per-node clipped output ranges, in need (zeroed, one
// per node), and the required range of the unit input.
func backpropUnit(u *Unit, out RowRange, need []RowRange) (unitSlice, RowRange) {
	nodes := u.Sub.Nodes()
	need[len(nodes)-1] = out.clip(heightOf(u.OutShape))
	var inputNeed RowRange
	for i := len(nodes) - 1; i >= 0; i-- {
		w := u.windows[i]
		req := inRangeForOut(need[i], w.k, w.s, w.p)
		for _, in := range nodes[i].Inputs {
			if in == graph.InputID {
				inputNeed = inputNeed.union(req)
				continue
			}
			need[in] = need[in].union(req.clip(u.shapes[in][1]))
		}
	}
	return unitSlice{inRows: inputNeed.clip(heightOf(u.InShape)), nodes: need}, inputNeed
}

func heightOf(shape []int) int {
	if len(shape) == 3 {
		return shape[1]
	}
	return 0
}

// rowBytes returns the byte size of one row (all channels, full width).
func rowBytes(shape []int) int64 {
	if len(shape) != 3 {
		return 0
	}
	return int64(shape[0]) * int64(shape[2]) * 4
}

// ChannelSlice describes one channel partition of a single-unit group: the
// output channels it computes, the subgraph that computes them (its weight
// tensors sliced out of the unit's once, here), the weights it holds, and
// its extents. Every channel partition consumes the full group input.
type ChannelSlice struct {
	Channels   RowRange
	Sub        *graph.Graph
	FLOPs      int64
	ParamBytes int64
	InBytes    int64
	OutBytes   int64
}

// ChannelSlices computes the partition slices for parallelizing a single
// channel-partitionable unit across `parts` partitions along its output
// channels.
func ChannelSlices(u *Unit, parts int) ([]ChannelSlice, error) {
	if !u.Channel {
		return nil, fmt.Errorf("partition: unit %d (%s) is not channel-partitionable", u.Index, u.Name)
	}
	outC := u.OutChannels()
	if outC < parts {
		return nil, fmt.Errorf("partition: unit %d has %d output channels < %d parts", u.Index, outC, parts)
	}
	inBytes := tensor.SizeBytes(u.InShape)
	outBytes := tensor.SizeBytes(u.OutShape)
	slices := make([]ChannelSlice, parts)
	for i := 0; i < parts; i++ {
		lo, hi := i*outC/parts, (i+1)*outC/parts
		sub, err := ChannelSubgraph(u, lo, hi)
		if err != nil {
			return nil, err
		}
		frac := func(v int64) int64 { return v * int64(hi-lo) / int64(outC) }
		slices[i] = ChannelSlice{
			Channels:   RowRange{Lo: lo, Hi: hi},
			Sub:        sub,
			FLOPs:      frac(u.FLOPs),
			ParamBytes: sub.ParamBytes(),
			InBytes:    inBytes,
			OutBytes:   frac(outBytes),
		}
	}
	return slices, nil
}

// ChannelSubgraph builds the subgraph computing output channels [lo, hi) of
// a channel-partitionable unit. Weight tensors are sliced if materialized.
func ChannelSubgraph(u *Unit, lo, hi int) (*graph.Graph, error) {
	if !u.Channel {
		return nil, fmt.Errorf("partition: unit %d (%s) is not channel-partitionable", u.Index, u.Name)
	}
	sub := graph.New(fmt.Sprintf("%s[ch%d:%d]", u.Name, lo, hi), u.InShape)
	for _, node := range u.Sub.Nodes() {
		var op nn.Op
		switch o := node.Op.(type) {
		case nn.ChannelSliceable:
			sliced, err := o.SliceChannels(lo, hi)
			if err != nil {
				return nil, err
			}
			op = sliced
		case *nn.ReLU:
			op = nn.NewReLU(fmt.Sprintf("%s[ch%d:%d]", o.Name(), lo, hi))
		default:
			return nil, fmt.Errorf("partition: op %s (%s) cannot be channel-sliced", node.Op.Name(), node.Op.Kind())
		}
		if _, err := sub.Add(op, node.Inputs...); err != nil {
			return nil, err
		}
	}
	return sub, nil
}
