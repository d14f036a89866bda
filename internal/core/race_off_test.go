//go:build !race

package core

const raceOn = false
