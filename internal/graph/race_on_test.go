//go:build race

package graph_test

// raceOn: under the race detector the zoo tests leave out the models whose
// weights run to hundreds of megabytes.
const raceOn = true
