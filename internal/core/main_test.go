package core

import (
	"testing"

	"ftdag/internal/block"
	"ftdag/internal/leakcheck"
)

// TestMain poisons every buffer returned to the block free list, so a
// use-after-free or double-free in the executors' buffer recycling surfaces
// as a wrong output or digest in whichever test runs into it. leakcheck
// then fails the package if a goroutine of the module outlives the tests.
func TestMain(m *testing.M) {
	block.PoisonFreed(true)
	leakcheck.Main(m)
}
