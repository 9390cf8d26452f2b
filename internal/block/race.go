//go:build race

package block

// raceEnabled keeps the race detector's builds on the Go body of digests: it
// does not see the loads and stores of the assembly ones.
const raceEnabled = true
