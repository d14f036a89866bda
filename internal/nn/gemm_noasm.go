//go:build !amd64

package nn

// gemmTiles lists the matrix-panel implementations: without assembly, the Go
// reference at each geometry.
func gemmTiles() []*gemmTile { return goTiles() }

func laneDotAcc4(k int, w0, w1, w2, w3, x, out []float32) {
	laneDotAcc4Go(k, w0, w1, w2, w3, x, out)
}
