package leakcheck

import (
	"strings"
	"testing"
	"time"
)

// TestReportsBlockedGoroutine: a goroutine parked on a channel is reported
// with the line that names who launched it, and is no longer reported once
// the channel releases it.
func TestReportsBlockedGoroutine(t *testing.T) {
	release := make(chan struct{})
	go func() { <-release }()

	stacks := leaked(50 * time.Millisecond)
	if len(stacks) != 1 || !strings.Contains(stacks[0], "created by ftdag/internal/leakcheck.TestReportsBlockedGoroutine") {
		t.Fatalf("want the blocked goroutine's stack, got %d:\n%s", len(stacks), strings.Join(stacks, "\n\n"))
	}

	close(release)
	if stacks := leaked(5 * time.Second); len(stacks) != 0 {
		t.Fatalf("released goroutine still reported:\n%s", strings.Join(stacks, "\n\n"))
	}
}
