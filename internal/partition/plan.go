package partition

import (
	"fmt"
	"strings"

	"gillis/internal/tensor"
)

// Dim is a partitioning dimension.
type Dim int

// Partitioning dimensions.
const (
	// DimNone runs the group whole on a single function.
	DimNone Dim = iota + 1
	// DimSpatial splits the group output along feature-map height; workers
	// replicate the group weights and receive input slabs with halos.
	DimSpatial
	// DimChannel splits a single unit along output channels; workers hold a
	// weight slice and receive the full input.
	DimChannel
)

// String returns the dimension name.
func (d Dim) String() string {
	switch d {
	case DimNone:
		return "none"
	case DimSpatial:
		return "spatial"
	case DimChannel:
		return "channel"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Option is one way to parallelize a layer group.
type Option struct {
	Dim   Dim
	Parts int
}

// String renders e.g. "spatial×4".
func (o Option) String() string {
	if o.Dim == DimNone {
		return "whole"
	}
	return fmt.Sprintf("%s×%d", o.Dim, o.Parts)
}

// DefaultPartCounts is the worker fan-out grid searched by the planners,
// matching the paper's experiments (up to 16 parallel functions, Fig. 7).
var DefaultPartCounts = []int{2, 4, 8, 16}

// FeasibleOptions enumerates the parallelization options of the group
// units[first..last] based on tensor dependencies (§III-C): spatial
// partitioning requires local height response in every unit; channel
// partitioning requires a single-unit group with sliceable output channels.
func FeasibleOptions(units []*Unit, first, last int, partCounts []int) ([]Option, error) {
	if first < 0 || last >= len(units) || first > last {
		return nil, fmt.Errorf("partition: bad group [%d,%d] of %d units", first, last, len(units))
	}
	if len(partCounts) == 0 {
		partCounts = DefaultPartCounts
	}
	opts := []Option{{Dim: DimNone, Parts: 1}}

	spatial := true
	for _, u := range units[first : last+1] {
		if !u.Spatial {
			spatial = false
			break
		}
	}
	if spatial {
		outH := units[last].OutHeight()
		for _, p := range partCounts {
			if p > 1 && outH >= p {
				opts = append(opts, Option{Dim: DimSpatial, Parts: p})
			}
		}
	}
	if first == last && units[first].Channel {
		outC := units[first].OutChannels()
		for _, p := range partCounts {
			if p > 1 && outC >= p {
				opts = append(opts, Option{Dim: DimChannel, Parts: p})
			}
		}
	}
	return opts, nil
}

// Extent summarizes a parallelization option's resource profile, the
// quantities the performance model and memory checks consume.
type Extent struct {
	// Parts is the partition count (1 for DimNone).
	Parts int
	// WeightBytes is the largest per-partition resident weight footprint.
	WeightBytes int64
	// MaxFLOPs is the most-loaded partition's compute (incl. halo
	// redundancy); TotalFLOPs sums all partitions.
	MaxFLOPs, TotalFLOPs int64
	// InBytesTotal and OutBytesTotal sum the request and response payloads
	// across partitions (what crosses the master's links).
	InBytesTotal, OutBytesTotal int64
	// MaxPartInBytes / MaxPartOutBytes are the largest single-partition
	// payloads.
	MaxPartInBytes, MaxPartOutBytes int64
	// ActBytes is the peak per-partition activation footprint as the
	// planners count it: the largest single node slab (spatial), or a unit's
	// input plus output. What executing a partition really takes from the
	// scratch pool is ArenaBytes, computed on demand; the planners' memory
	// checks still run on ActBytes, so plans and OOM boundaries are the ones
	// pinned before there was an arena.
	ActBytes int64
}

// ArenaBytes is the size of the activation arena executing one partition of
// units[first..last] under opt takes from par's scratch pool per query — the
// largest over the partitions. A whole group runs its units one after the
// other in one arena sized for the hungriest unit's sub-graph
// (ForwardChainBatch); a spatial partition runs its whole unit chain in one
// (PartSlice.ArenaBytes); a channel partition runs its sliced sub-graph. The
// tensors that enter and leave a partition or a unit are payloads their
// holders own and are not in it.
func ArenaBytes(units []*Unit, first, last int, opt Option) (int64, error) {
	if first < 0 || last >= len(units) || first > last {
		return 0, fmt.Errorf("partition: bad group [%d,%d]", first, last)
	}
	group := units[first : last+1]
	var most int64
	switch opt.Dim {
	case DimNone:
		return chainArenaBytes(group)
	case DimSpatial:
		slices, err := SpatialSlices(group, opt.Parts)
		if err != nil {
			return 0, err
		}
		for _, ps := range slices {
			b, err := ps.ArenaBytes(group)
			if err != nil {
				return 0, err
			}
			most = max(most, b)
		}
	case DimChannel:
		if first != last {
			return 0, fmt.Errorf("partition: channel option on multi-unit group [%d,%d]", first, last)
		}
		slices, err := ChannelSlices(group[0], opt.Parts)
		if err != nil {
			return 0, err
		}
		for _, cs := range slices {
			b, err := cs.Sub.ArenaBytes()
			if err != nil {
				return 0, err
			}
			most = max(most, b)
		}
	default:
		return 0, fmt.Errorf("partition: unknown dimension %v", opt.Dim)
	}
	return most, nil
}

// GroupExtent computes the Extent of parallelizing units[first..last] with
// the given option.
func GroupExtent(units []*Unit, first, last int, opt Option) (Extent, error) {
	if first < 0 || last >= len(units) || first > last {
		return Extent{}, fmt.Errorf("partition: bad group [%d,%d]", first, last)
	}
	group := units[first : last+1]
	switch opt.Dim {
	case DimNone:
		var ext Extent
		ext.Parts = 1
		for _, u := range group {
			ext.WeightBytes += u.ParamBytes
			ext.TotalFLOPs += u.FLOPs
			act := tensor.SizeBytes(u.InShape) + tensor.SizeBytes(u.OutShape)
			if act > ext.ActBytes {
				ext.ActBytes = act
			}
		}
		ext.MaxFLOPs = ext.TotalFLOPs
		ext.InBytesTotal = tensor.SizeBytes(group[0].InShape)
		ext.OutBytesTotal = tensor.SizeBytes(group[len(group)-1].OutShape)
		ext.MaxPartInBytes = ext.InBytesTotal
		ext.MaxPartOutBytes = ext.OutBytesTotal
		return ext, nil

	case DimSpatial:
		slices, err := SpatialSlices(group, opt.Parts)
		if err != nil {
			return Extent{}, err
		}
		var ext Extent
		ext.Parts = opt.Parts
		var weights int64
		for _, u := range group {
			weights += u.ParamBytes // replicated on every partition
		}
		ext.WeightBytes = weights
		for _, ps := range slices {
			ext.TotalFLOPs += ps.FLOPs
			if ps.FLOPs > ext.MaxFLOPs {
				ext.MaxFLOPs = ps.FLOPs
			}
			ext.InBytesTotal += ps.InBytes
			ext.OutBytesTotal += ps.OutBytes
			if ps.InBytes > ext.MaxPartInBytes {
				ext.MaxPartInBytes = ps.InBytes
			}
			if ps.OutBytes > ext.MaxPartOutBytes {
				ext.MaxPartOutBytes = ps.OutBytes
			}
			if ps.ActBytes > ext.ActBytes {
				ext.ActBytes = ps.ActBytes
			}
		}
		return ext, nil

	case DimChannel:
		if first != last {
			return Extent{}, fmt.Errorf("partition: channel option on multi-unit group [%d,%d]", first, last)
		}
		slices, err := ChannelSlices(group[0], opt.Parts)
		if err != nil {
			return Extent{}, err
		}
		var ext Extent
		ext.Parts = opt.Parts
		for _, cs := range slices {
			ext.TotalFLOPs += cs.FLOPs
			if cs.FLOPs > ext.MaxFLOPs {
				ext.MaxFLOPs = cs.FLOPs
			}
			if cs.ParamBytes > ext.WeightBytes {
				ext.WeightBytes = cs.ParamBytes
			}
			ext.InBytesTotal += cs.InBytes
			ext.OutBytesTotal += cs.OutBytes
			if cs.InBytes > ext.MaxPartInBytes {
				ext.MaxPartInBytes = cs.InBytes
			}
			if cs.OutBytes > ext.MaxPartOutBytes {
				ext.MaxPartOutBytes = cs.OutBytes
			}
			act := cs.InBytes + cs.OutBytes
			if act > ext.ActBytes {
				ext.ActBytes = act
			}
		}
		return ext, nil
	}
	return Extent{}, fmt.Errorf("partition: unknown dimension %v", opt.Dim)
}

// GroupPlan assigns one layer group its parallelization and placement.
type GroupPlan struct {
	// First and Last are inclusive unit indices.
	First, Last int
	// Option is the group's parallelization.
	Option Option
	// OnMaster places partition 0 on the master function (Fig. 4: "the
	// master can also help to compute a partition"). For DimNone it places
	// the whole group on the master instead of a worker.
	OnMaster bool
}

// Workers returns the number of worker functions the group occupies.
func (gp GroupPlan) Workers() int {
	if gp.OnMaster {
		return gp.Option.Parts - 1
	}
	return gp.Option.Parts
}

// Plan is a complete layer grouping and parallelization strategy S for a
// model (§IV-B problem formulation).
type Plan struct {
	Model  string
	Groups []GroupPlan
}

// DefaultPlan is the paper's Default baseline (§V-B): the whole unit chain
// as one group in a single function. model becomes the deployment's function
// name prefix.
func DefaultPlan(model string, units []*Unit) *Plan {
	return &Plan{Model: model, Groups: []GroupPlan{{
		First: 0, Last: len(units) - 1,
		Option:   Option{Dim: DimNone, Parts: 1},
		OnMaster: true,
	}}}
}

// Validate checks that the plan covers units [0, n) contiguously and that
// every group's option is feasible.
func (p *Plan) Validate(units []*Unit) error {
	next := 0
	for gi, gp := range p.Groups {
		if gp.First != next {
			return fmt.Errorf("partition: plan group %d starts at %d, want %d", gi, gp.First, next)
		}
		if gp.Last < gp.First || gp.Last >= len(units) {
			return fmt.Errorf("partition: plan group %d range [%d,%d] invalid", gi, gp.First, gp.Last)
		}
		opts, err := FeasibleOptions(units, gp.First, gp.Last, allPartCounts(gp.Option.Parts))
		if err != nil {
			return err
		}
		if !containsOption(opts, gp.Option) {
			return fmt.Errorf("partition: plan group %d option %v infeasible for units [%d,%d]",
				gi, gp.Option, gp.First, gp.Last)
		}
		if gp.Option.Dim == DimNone && gp.Option.Parts != 1 {
			return fmt.Errorf("partition: plan group %d: whole group must have 1 part", gi)
		}
		next = gp.Last + 1
	}
	if next != len(units) {
		return fmt.Errorf("partition: plan covers %d of %d units", next, len(units))
	}
	return nil
}

// MasterWeightBytes sums the weights resident on the master across all
// groups it participates in.
func (p *Plan) MasterWeightBytes(units []*Unit) (int64, error) {
	var total int64
	for _, gp := range p.Groups {
		if !gp.OnMaster {
			continue
		}
		ext, err := GroupExtent(units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return 0, err
		}
		total += ext.WeightBytes
	}
	return total, nil
}

// String renders the plan in the style of the paper's Fig. 14.
func (p *Plan) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "plan for %s (%d groups):\n", p.Model, len(p.Groups))
	for gi, gp := range p.Groups {
		place := "workers only"
		if gp.OnMaster {
			if gp.Option.Parts == 1 {
				place = "master only"
			} else {
				place = "master + workers"
			}
		}
		fmt.Fprintf(&sb, "  group %d: units %d..%d, %v, %s\n", gi+1, gp.First, gp.Last, gp.Option, place)
	}
	return sb.String()
}

func allPartCounts(p int) []int {
	if p <= 1 {
		return DefaultPartCounts
	}
	return []int{p}
}

func containsOption(opts []Option, o Option) bool {
	for _, x := range opts {
		if x == o {
			return true
		}
	}
	return false
}
