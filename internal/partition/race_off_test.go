//go:build !race

package partition

const raceOn = false
