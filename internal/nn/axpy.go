package nn

// dotAcc returns acc plus the dot product of x and w, accumulated strictly
// left to right, index 0 upwards — one rounding per multiply and one per
// add (the conversion keeps a compiler from fusing the two). DepthwiseConv2D's tiny k×k window dots keep this order (the GEMM
// engine in gemm.go is the entry point for every matrix-shaped reduction);
// the strict order is what makes its outputs bitwise reproducible across
// serial, parallel, and partitioned execution.
func dotAcc(acc float32, x, w []float32) float32 {
	w = w[:len(x)]
	for i, v := range x {
		acc += float32(v * w[i])
	}
	return acc
}
