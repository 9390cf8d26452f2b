//go:build !race

package tile

const raceEnabled = false
