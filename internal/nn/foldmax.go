package nn

// FoldMax2 folds two workers of a fork-join round into the running maxima
// of its Monte Carlo trials (perf.Table's order statistic): for every trial
// i, in worker order,
//
//	if a := off0 + d0[i] + c0; a > w[i] { w[i] = a }
//	if b := off1 + d1[i] + c1; b > w[i] { w[i] = b }
//
// Each sum rounds left to right, (off+d)+c. A NaN sum never wins, and the
// first of two zeros stays; on values that hold neither a NaN nor a −0, that
// is the builtin max. d0 and d1 hold at least len(w) draws. It lives here,
// beside the row helpers, because this package's one CPU probe picks its
// implementation: the AVX kernel of gemm_amd64.s, four trials to an
// instruction, where the CPU and kernelCap admit it, foldMax2Go elsewhere
// and on the tail. Either writes the same bits.
func FoldMax2(w, d0, d1 []float64, off0, c0, off1, c1 float64) {
	foldMax2(w, d0[:len(w)], d1[:len(w)], off0, c0, off1, c1)
}

// foldMax2Go is FoldMax2's reference.
func foldMax2Go(w, d0, d1 []float64, off0, c0, off1, c1 float64) {
	d0, d1 = d0[:len(w)], d1[:len(w)]
	for i, m := range w {
		if a := off0 + d0[i] + c0; a > m {
			m = a
		}
		if b := off1 + d1[i] + c1; b > m {
			m = b
		}
		w[i] = m
	}
}
