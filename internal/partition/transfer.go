package partition

import "fmt"

// TransferBytes totals the bytes a plan moves over the master's network
// links: the weight shipment that deploys each worker partition plus the
// per-query activation payloads (partition inputs out, partition outputs
// back). Work the master executes itself — DimNone groups placed on the
// master, and partition 0 of a parallel group with OnMaster — moves nothing.
//
// This is the quantity the fusion pass shrinks for the planners: folding a
// BatchNorm into its convolution halves that BatchNorm's share of the
// shipped weight bytes (two per-channel vectors instead of four), so a plan
// over a fused graph reports strictly fewer transfer bytes than the same
// plan over the unfused graph.
func TransferBytes(units []*Unit, p *Plan) (int64, error) {
	if err := p.Validate(units); err != nil {
		return 0, err
	}
	var total int64
	for gi, gp := range p.Groups {
		ext, err := GroupExtent(units, gp.First, gp.Last, gp.Option)
		if err != nil {
			return 0, fmt.Errorf("partition: transfer bytes of group %d: %w", gi, err)
		}
		for i, pe := range ext.PerPart {
			if gp.OnMaster && i == 0 {
				continue
			}
			total += pe.WeightBytes + pe.InBytes + pe.OutBytes
		}
	}
	return total, nil
}
