//go:build !race

package graph_test

const raceOn = false
