package trace

import (
	"testing"
	"time"
)

// setFlushEvery sets the write-behind interval of the recorders the test
// persists from now on: time.Hour for a test that must see no ticks, a
// millisecond for one that races the flusher.
func setFlushEvery(tb testing.TB, d time.Duration) {
	old := flushEvery
	flushEvery = d
	tb.Cleanup(func() { flushEvery = old })
}
