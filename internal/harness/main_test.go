package harness

import (
	"os"
	"testing"

	"ftdag/internal/block"
)

// TestMain poisons every buffer returned to the block free list, so a
// use-after-free or double-free in the executors' buffer recycling surfaces
// as a wrong output or digest in whichever test runs into it.
func TestMain(m *testing.M) {
	block.PoisonFreed(true)
	os.Exit(m.Run())
}
