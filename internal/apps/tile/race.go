//go:build race

package tile

// raceEnabled keeps the race detector's builds on the Go bodies: it does not
// see the loads and stores of the assembly ones.
const raceEnabled = true
