//go:build !race

package gateway_test

const raceOn = false
