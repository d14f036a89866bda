package bench

import (
	"fmt"
	"strings"

	"gillis/internal/platform"
)

// Fig1Row is one model point of Fig. 1: single-function WRN-50-k latency on
// Google Cloud Functions and AWS Lambda.
type Fig1Row struct {
	Widening int
	Lambda   Measurement
	GCF      Measurement
}

// Fig1Result reproduces Fig. 1 (§II-B): inference latency of Wide
// ResNet-50 grows ~quadratically with the widening scalar until the model
// no longer fits a single function (OOM).
type Fig1Result struct {
	Rows []Fig1Row
}

// Fig1 runs the experiment.
func Fig1(ctx *Context) (*Fig1Result, error) {
	lam, err := platform.ByName("lambda")
	if err != nil {
		return nil, err
	}
	gcf, err := platform.ByName("gcf")
	if err != nil {
		return nil, err
	}
	maxK := 5
	if ctx.Quick {
		maxK = 3
	}
	res := &Fig1Result{}
	for k := 1; k <= maxK; k++ {
		units, err := ctx.Units(fmt.Sprintf("wrn50-%d", k))
		if k == 1 {
			units, err = ctx.Units("resnet50")
		}
		if err != nil {
			return nil, err
		}
		row := Fig1Row{Widening: k}
		row.Lambda = measureDefault(lam, ctx.Seed+int64(k), units, ctx.queries())
		row.GCF = measureDefault(gcf, ctx.Seed+int64(k)+100, units, ctx.queries())
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Table renders the figure as text.
func (r *Fig1Result) Table() string {
	var sb strings.Builder
	sb.WriteString("Fig 1. Single-function WRN-50-k serving latency (ms)\n")
	sb.WriteString("widening |   lambda |      gcf\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&sb, "%8d | %8s | %8s\n", row.Widening, fmtMs(row.Lambda), fmtMs(row.GCF))
	}
	return sb.String()
}
