//go:build race

package core

// raceOn: the allocation budgets are the plain build's; under the race
// detector they are skipped.
const raceOn = true
