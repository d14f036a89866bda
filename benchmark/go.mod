module gillis/benchmark

go 1.22

require gillis v0.0.0

replace gillis => ../
