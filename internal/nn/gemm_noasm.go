//go:build !amd64

package nn

// gemmTiles lists the matrix-panel implementations: without assembly, the Go
// reference at each geometry.
func gemmTiles() []*gemmTile { return goTiles() }

func laneDotAcc4(k int, w0, w1, w2, w3, x, out []float32) {
	laneDotAcc4Go(k, w0, w1, w2, w3, x, out)
}

func foldMax2(w, d0, d1 []float64, off0, c0, off1, c1 float64) {
	foldMax2Go(w, d0, d1, off0, c0, off1, c1)
}
