//go:build race

package partition

// raceOn: under the race detector sync.Pool drops a random share of what is
// put back, so a forward may find its scratch pool empty and allocate the
// buffer again; the allocation budgets are the plain build's.
const raceOn = true
