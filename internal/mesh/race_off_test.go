//go:build !race

package mesh

const raceOn = false
