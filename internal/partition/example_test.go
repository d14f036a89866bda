package partition_test

import (
	"fmt"

	"gillis/internal/graph"
	"gillis/internal/nn"
	"gillis/internal/partition"
	"gillis/internal/tensor"
)

// ExampleLinearize shows how a model with a residual branch collapses into
// the linear unit chain Gillis partitions.
func ExampleLinearize() {
	g := graph.New("example", []int{3, 16, 16})
	stem := g.MustAdd(nn.NewConv2D("stem", 3, 8, 3, 1, 1))
	branch := g.MustAdd(nn.NewConv2D("branch", 8, 8, 3, 1, 1), stem)
	g.MustAdd(nn.NewAdd("add"), branch, stem)
	g.MustAdd(nn.NewReLU("relu"))

	units, err := partition.Linearize(g)
	if err != nil {
		fmt.Println(err)
		return
	}
	for _, u := range units {
		fmt.Printf("unit %d: %s (%d ops, spatial=%v)\n", u.Index, u.Name, u.Sub.Len(), u.Spatial)
	}
	// Output:
	// unit 0: stem (1 ops, spatial=true)
	// unit 1: add (3 ops, spatial=true)
}

// ExampleExecSpatial demonstrates bit-exact spatially partitioned
// execution: the partitioned result equals monolithic execution.
func ExampleExecSpatial() {
	g := graph.New("example", []int{1, 8, 8})
	g.MustAdd(nn.NewConv2D("conv", 1, 1, 3, 1, 1))
	g.Init(1)
	units, err := partition.Linearize(g)
	if err != nil {
		fmt.Println(err)
		return
	}
	x := tensor.New(1, 8, 8)
	for i := range x.Data() {
		x.Data()[i] = 1
	}
	whole, _ := g.Forward(x)
	split, _ := partition.ExecSpatial(units, 4, x)
	fmt.Println("bitwise equal:", tensor.Equal(whole, split))
	// Output:
	// bitwise equal: true
}

// ExampleFeasibleOptions lists the parallelization options tensor-dependency
// analysis admits for a convolution unit.
func ExampleFeasibleOptions() {
	g := graph.New("example", []int{3, 32, 32})
	g.MustAdd(nn.NewConv2D("conv", 3, 16, 3, 1, 1))
	g.MustAdd(nn.NewReLU("relu"))
	units, _ := partition.Linearize(g)
	opts, _ := partition.FeasibleOptions(units, 0, 0, []int{2, 4})
	for _, o := range opts {
		fmt.Println(o)
	}
	// Output:
	// whole
	// spatial×2
	// spatial×4
	// channel×2
	// channel×4
}
