//go:build !race

package simnet

const raceOn = false
