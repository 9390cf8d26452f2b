//go:build race

package service

// raceEnabled: this is a race detector build.
const raceEnabled = true
