package partition

import (
	"fmt"
	"strings"

	"gillis/internal/graph"
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
// units[first..last] that Feasible admits, over the given part counts: the
// whole group first, then the spatial splits, then the channel splits.
func FeasibleOptions(units []*Unit, first, last int, partCounts []int) ([]Option, error) {
	if first < 0 || last >= len(units) || first > last {
		return nil, fmt.Errorf("partition: bad group [%d,%d] of %d units", first, last, len(units))
	}
	if len(partCounts) == 0 {
		partCounts = DefaultPartCounts
	}
	opts := []Option{{Dim: DimNone, Parts: 1}}
	for _, dim := range []Dim{DimSpatial, DimChannel} {
		for _, p := range partCounts {
			if opt := (Option{Dim: dim, Parts: p}); Feasible(units, first, last, opt) {
				opts = append(opts, opt)
			}
		}
	}
	return opts, nil
}

// Feasible reports whether the group units[first..last] can run under opt,
// by its tensor dependencies (§III-C): a whole group always can, on one
// part; a spatial split needs at least two parts, every unit Spatial and as
// many output rows as parts; a channel split needs at least two parts and a
// single Channel unit with as many output channels as parts.
func Feasible(units []*Unit, first, last int, opt Option) bool {
	if first < 0 || last >= len(units) || first > last {
		return false
	}
	switch opt.Dim {
	case DimNone:
		return opt.Parts == 1
	case DimSpatial:
		if opt.Parts < 2 || units[last].OutHeight() < opt.Parts {
			return false
		}
		for _, u := range units[first : last+1] {
			if !u.Spatial {
				return false
			}
		}
		return true
	case DimChannel:
		u := units[first]
		return first == last && opt.Parts >= 2 && u.Channel && u.OutChannels() >= opt.Parts
	}
	return false
}

// Extent is what one layer group under one parallelization option costs,
// partition by partition: the numbers the performance model prices, the
// runtime pays on the virtual clock and the memory checks budget.
type Extent struct {
	// PerPart lists every partition, in partition order (one for DimNone).
	PerPart []PartExtent
	// GroupFLOPs is the group's monolithic compute: a partition's share of
	// the group's modeled time is its FLOPs over these.
	GroupFLOPs int64
	// TotalFLOPs sums PerPart's FLOPs, halo redundancy included.
	TotalFLOPs int64
	// InBytesTotal and OutBytesTotal sum PerPart's request and response
	// payloads (what crosses the master's links).
	InBytesTotal, OutBytesTotal int64
	// WeightBytes is the largest partition's resident weights.
	WeightBytes int64
	// ActBytes is the peak per-partition activation footprint as the
	// planners count it: the largest single node slab (spatial), or a unit's
	// input plus output. What executing a partition really takes from the
	// scratch pool is the largest ArenaBytes of its graphs (Slices.Graphs),
	// which nothing prices yet; the memory checks run on ActBytes, so plans
	// and OOM boundaries are the ones pinned before there was an arena.
	ActBytes int64
}

// PartExtent is one partition's share of a group: its compute (halo
// redundancy included), the weights it holds, and the payloads it receives
// and returns.
type PartExtent struct {
	FLOPs, WeightBytes, InBytes, OutBytes int64
}

// ResidentBytes is what one partition of the group holds while it serves
// batch queries at once: its weights plus batch activation footprints. Every
// memory check — the planners', the performance model's, Deploy's and the
// mesh's — budgets with it.
func (e Extent) ResidentBytes(batch int) int64 {
	return e.WeightBytes + e.ActBytes*int64(batch)
}

// Slices are the execution objects of a group's partitions, in partition
// order: the row slices of a spatial group or the sliced sub-graphs of a
// channel group (neither for a whole group).
type Slices struct {
	Spatial []PartSlice
	Channel []ChannelSlice
}

// Graphs returns the graph each partition of group runs under opt, in
// partition order: the units' Join for a whole group, the sliced sub-graphs
// of a channel group, the lowered parts of a spatial group (PartSlice.Graph).
func (sl Slices) Graphs(group []*Unit, opt Option) ([]*graph.Graph, error) {
	switch opt.Dim {
	case DimNone:
		g, err := Join(group)
		if err != nil {
			return nil, err
		}
		return []*graph.Graph{g}, nil
	case DimSpatial:
		gs := make([]*graph.Graph, len(sl.Spatial))
		for i, ps := range sl.Spatial {
			var err error
			if gs[i], err = ps.Graph(group); err != nil {
				return nil, err
			}
		}
		return gs, nil
	case DimChannel:
		gs := make([]*graph.Graph, len(sl.Channel))
		for i, cs := range sl.Channel {
			gs[i] = cs.Sub
		}
		return gs, nil
	}
	return nil, fmt.Errorf("partition: unknown dimension %v", opt.Dim)
}

// GroupExtent computes the Extent of parallelizing units[first..last] with
// the given option.
func GroupExtent(units []*Unit, first, last int, opt Option) (Extent, error) {
	ext, _, err := GroupSlices(units, first, last, opt)
	return ext, err
}

// GroupSlices is GroupExtent that also returns the partitions' execution
// objects, for a deployment that runs them: it is the one place a group is
// split into partitions.
func GroupSlices(units []*Unit, first, last int, opt Option) (Extent, Slices, error) {
	if first < 0 || last >= len(units) || first > last {
		return Extent{}, Slices{}, fmt.Errorf("partition: bad group [%d,%d]", first, last)
	}
	group := units[first : last+1]
	var ext Extent
	var weights int64
	for _, u := range group {
		ext.GroupFLOPs += u.FLOPs
		weights += u.ParamBytes
	}
	var sl Slices
	var err error
	switch opt.Dim {
	case DimNone:
		ext.PerPart = []PartExtent{{
			FLOPs:       ext.GroupFLOPs,
			WeightBytes: weights,
			InBytes:     tensor.SizeBytes(group[0].InShape),
			OutBytes:    tensor.SizeBytes(group[len(group)-1].OutShape),
		}}
		for _, u := range group {
			ext.ActBytes = max(ext.ActBytes, tensor.SizeBytes(u.InShape)+tensor.SizeBytes(u.OutShape))
		}

	case DimSpatial:
		if sl.Spatial, err = SpatialSlices(group, opt.Parts); err != nil {
			return Extent{}, Slices{}, err
		}
		return spatialExtent(sl.Spatial, weights, ext.GroupFLOPs), sl, nil

	case DimChannel:
		if first != last {
			return Extent{}, Slices{}, fmt.Errorf("partition: channel option on multi-unit group [%d,%d]", first, last)
		}
		if sl.Channel, err = ChannelSlices(group[0], opt.Parts); err != nil {
			return Extent{}, Slices{}, err
		}
		ext.PerPart = make([]PartExtent, len(sl.Channel))
		for i, cs := range sl.Channel {
			ext.PerPart[i] = PartExtent{FLOPs: cs.FLOPs, WeightBytes: cs.ParamBytes, InBytes: cs.InBytes, OutBytes: cs.OutBytes}
			ext.ActBytes = max(ext.ActBytes, cs.InBytes+cs.OutBytes)
		}

	default:
		return Extent{}, Slices{}, fmt.Errorf("partition: unknown dimension %v", opt.Dim)
	}
	ext.sumParts()
	return ext, sl, nil
}

// spatialExtent is the Extent of a spatial group whose parts are ps, the
// group holding weights bytes of weights and groupFLOPs of compute: every
// part holds the whole group's weights. GroupSlices and the backward walk
// both read a spatial group's Extent from here.
func spatialExtent(ps []PartSlice, weights, groupFLOPs int64) Extent {
	ext := Extent{PerPart: make([]PartExtent, len(ps)), GroupFLOPs: groupFLOPs}
	for i, p := range ps {
		ext.PerPart[i] = PartExtent{FLOPs: p.FLOPs, WeightBytes: weights, InBytes: p.InBytes, OutBytes: p.OutBytes}
		ext.ActBytes = max(ext.ActBytes, p.ActBytes)
	}
	ext.sumParts()
	return ext
}

// sumParts sets the Extent's totals and its largest weights from PerPart.
func (e *Extent) sumParts() {
	for _, p := range e.PerPart {
		e.WeightBytes = max(e.WeightBytes, p.WeightBytes)
		e.TotalFLOPs += p.FLOPs
		e.InBytesTotal += p.InBytes
		e.OutBytesTotal += p.OutBytes
	}
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

// PipelinePlan is the paper's Pipeline baseline (§V-B) as a plan: the unit
// chain packed greedily into consecutive whole groups on the master, each as
// long as its ResidentBytes(1) stays within budgetBytes. The runtime streams
// such a plan's weights from object storage one group at a time
// (runtime.DeployPipeline), so only the group running is resident.
func PipelinePlan(units []*Unit, budgetBytes int64) (*Plan, error) {
	if len(units) == 0 {
		return nil, fmt.Errorf("partition: no units")
	}
	plan := &Plan{Model: "pipeline-" + ModelName(units)}
	whole := Option{Dim: DimNone, Parts: 1}
	for first := 0; first < len(units); {
		last := first
		for ; last < len(units); last++ {
			ext, err := GroupExtent(units, first, last, whole)
			if err != nil {
				return nil, err
			}
			if ext.ResidentBytes(1) > budgetBytes {
				break
			}
		}
		if last == first {
			u := units[first]
			return nil, fmt.Errorf("partition: unit %d (%s) alone exceeds the %d MB budget; pipeline infeasible", u.Index, u.Name, budgetBytes/1e6)
		}
		plan.Groups = append(plan.Groups, GroupPlan{First: first, Last: last - 1, Option: whole, OnMaster: true})
		first = last
	}
	return plan, nil
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
		if !Feasible(units, gp.First, gp.Last, gp.Option) {
			return fmt.Errorf("partition: plan group %d option %v infeasible for units [%d,%d]",
				gi, gp.Option, gp.First, gp.Last)
		}
		next = gp.Last + 1
	}
	if next != len(units) {
		return fmt.Errorf("partition: plan covers %d of %d units", next, len(units))
	}
	return nil
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
