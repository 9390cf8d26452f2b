//go:build !race

package block

const raceEnabled = false
