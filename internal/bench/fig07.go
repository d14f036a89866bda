package bench

import (
	"fmt"
	"strings"

	"gillis/internal/partition"
	"gillis/internal/platform"
)

// Fig7Row is one fan-out point: mean latency of one parallelized layer
// group on Lambda and KNIX.
type Fig7Row struct {
	Functions int
	Lambda    Measurement
	KNIX      Measurement
}

// Fig7Result reproduces Fig. 7 (§III-C): parallelizing a layer group
// across more functions helps up to a point; on Lambda going from 8 to 16
// functions does more harm than good, while KNIX's fast function
// interactions degrade far less.
type Fig7Result struct {
	Rows []Fig7Row
}

// Fig7 parallelizes the three 256-channel 56×56 convolution layers of
// VGG-16 across 1..16 functions.
func Fig7(ctx *Context) (*Fig7Result, error) {
	units, err := ctx.Units("vgg16")
	if err != nil {
		return nil, err
	}
	group := units[6:9]
	lam, err := platform.ByName("lambda")
	if err != nil {
		return nil, err
	}
	knix, err := platform.ByName("knix")
	if err != nil {
		return nil, err
	}
	fanouts := []int{1, 2, 4, 8, 16}
	if ctx.Quick {
		fanouts = []int{1, 4, 16}
	}
	res := &Fig7Result{}
	for _, p := range fanouts {
		plan := &partition.Plan{Model: "vgg16-group", Groups: []partition.GroupPlan{
			groupPlanFor(p),
		}}
		row := Fig7Row{Functions: p}
		row.Lambda = measurePlan(lam, ctx.Seed+int64(p), group, plan, ctx.queries())
		row.KNIX = measurePlan(knix, ctx.Seed+int64(p)+50, group, plan, ctx.queries())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

func groupPlanFor(p int) partition.GroupPlan {
	if p == 1 {
		return partition.GroupPlan{
			First: 0, Last: 2,
			Option:   partition.Option{Dim: partition.DimNone, Parts: 1},
			OnMaster: true,
		}
	}
	return partition.GroupPlan{
		First: 0, Last: 2,
		Option: partition.Option{Dim: partition.DimSpatial, Parts: p},
	}
}

// Table renders the figure as text.
func (r *Fig7Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig 7. Layer-group latency vs number of parallel functions (ms)\n")
	sb.WriteString("functions |   lambda |     knix\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%9d | %8s | %8s\n", row.Functions, fmtMs(row.Lambda), fmtMs(row.KNIX))
	}
	return sb.String()
}
