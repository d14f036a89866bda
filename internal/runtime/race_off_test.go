//go:build !race

package runtime

const raceOn = false
