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
	if parts < 1 {
		return nil, fmt.Errorf("partition: parts %d < 1", parts)
	}
	for _, u := range units {
		if !u.Spatial {
			return nil, fmt.Errorf("partition: unit %d (%s) is not spatially partitionable", u.Index, u.Name)
		}
	}
	last := units[len(units)-1]
	outH := last.OutHeight()
	if outH < parts {
		return nil, fmt.Errorf("partition: group output height %d < %d parts", outH, parts)
	}
	slices := make([]PartSlice, parts)
	for i := 0; i < parts; i++ {
		out := RowRange{Lo: i * outH / parts, Hi: (i + 1) * outH / parts}
		ps, err := backprop(units, out)
		if err != nil {
			return nil, err
		}
		slices[i] = ps
	}
	return slices, nil
}

// backprop derives a PartSlice for one target output range by propagating
// required row intervals backwards through every unit (and, inside each
// unit, through its subgraph), then accounting forward for FLOPs. Every
// unit's per-node ranges are carved out of one slab.
func backprop(units []*Unit, out RowRange) (PartSlice, error) {
	ps := PartSlice{OutRows: out}
	ps.units = make([]unitSlice, len(units))
	total := 0
	for _, u := range units {
		total += u.Sub.Len()
	}
	slab := make([]RowRange, total)

	need := out
	for ui := len(units) - 1; ui >= 0; ui-- {
		u := units[ui]
		n := u.Sub.Len()
		total -= n
		us, inNeed, err := backpropUnit(u, need, slab[total:total+n:total+n])
		if err != nil {
			return PartSlice{}, err
		}
		ps.units[ui] = us
		need = inNeed
	}
	ps.InRows = need.clip(heightOf(units[0].InShape))

	// Forward accounting: FLOPs proportional to computed rows; activation
	// peak is the largest node slab.
	var flops int64
	var maxAct int64
	for ui, u := range units {
		shapes := u.NodeShapes()
		for _, node := range u.Sub.Nodes() {
			full := u.nodeFLOPs[node.ID]
			r := ps.units[ui].nodes[node.ID]
			h := shapes[node.ID][1]
			if h > 0 {
				flops += full * int64(r.Len()) / int64(h)
				act := tensor.SizeBytes(shapes[node.ID]) * int64(r.Len()) / int64(h)
				if act > maxAct {
					maxAct = act
				}
			}
		}
	}
	ps.FLOPs = flops
	ps.ActBytes = maxAct
	ps.InBytes = rowBytes(units[0].InShape) * int64(ps.InRows.Len())
	ps.OutBytes = rowBytes(units[len(units)-1].OutShape) * int64(out.Len())
	return ps, nil
}

// backpropUnit propagates a required output range through one unit's
// subgraph, returning per-node clipped output ranges, in need (zeroed, one
// per node), and the required range of the unit input.
func backpropUnit(u *Unit, out RowRange, need []RowRange) (unitSlice, RowRange, error) {
	nodes := u.Sub.Nodes()
	shapes := u.NodeShapes()
	need[len(nodes)-1] = out.clip(heightOf(u.OutShape))
	var inputNeed RowRange
	for i := len(nodes) - 1; i >= 0; i-- {
		node := nodes[i]
		k, s, p, err := hksp(node.Op)
		if err != nil {
			return unitSlice{}, RowRange{}, fmt.Errorf("partition: unit %d (%s): %w", u.Index, u.Name, err)
		}
		req := inRangeForOut(need[i], k, s, p)
		for _, in := range node.Inputs {
			if in == graph.InputID {
				inputNeed = inputNeed.union(req)
				continue
			}
			h := shapes[in][1]
			need[in] = need[in].union(req.clip(h))
		}
	}
	return unitSlice{inRows: inputNeed.clip(heightOf(u.InShape)), nodes: need}, inputNeed, nil
}

// hksp returns the height kernel/stride/pad of a spatial op.
func hksp(op nn.Op) (k, s, p int, err error) {
	sp, ok := op.(nn.Spatial)
	if !ok {
		return 0, 0, 0, fmt.Errorf("op %s (%s) is not spatial", op.Name(), op.Kind())
	}
	k, s, p = sp.HKernel()
	return k, s, p, nil
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
