package main

import (
	"context"
	"math/rand"
	"runtime"
	"sync"
	"time"
)

// schedule returns the intended send times of an open-loop run as offsets
// from its start: Poisson arrivals (exponential gaps) at rate per second for
// the duration. It is a pure function of its arguments.
func schedule(seed int64, rate float64, d time.Duration) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	var out []time.Duration
	for t := 0.0; ; {
		t += rng.ExpFloat64() / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// spinMargin is how long before a deadline waitUntil stops sleeping and
// yields in a loop instead: a sleep on a 1 kHz-tick kernel overshoots by up
// to a millisecond, which would make every request that late.
const spinMargin = 1500 * time.Microsecond

// waitUntil returns at the given time, or false once ctx is cancelled.
func waitUntil(ctx context.Context, at time.Time) bool {
	for {
		left := time.Until(at)
		switch {
		case left <= 0:
			return true
		case ctx.Err() != nil:
			return false
		case left > spinMargin:
			time.Sleep(left - spinMargin)
		default:
			runtime.Gosched()
		}
	}
}

// sent is the generator's record of one request.
type sent struct {
	intended time.Time     // when the schedule said to send it
	late     time.Duration // how late the generator released it
	begin    time.Time     // when a connection actually started sending it
	end      time.Time     // when the reply arrived
}

// latency is measured from the intended send time, so a stall charges every
// request that was due during it (no coordinated omission).
func (s sent) latency() time.Duration { return s.end.Sub(s.intended) }

// openLoop releases request i at start+offsets[i] whatever the replies are
// doing, and sends the released requests through at most conns senders (one
// connection each). A request that finds every sender busy waits, and that
// wait is part of its latency. It returns once every request has a reply.
func openLoop(ctx context.Context, start time.Time, offsets []time.Duration, conns int, send func(i int)) []sent {
	out := make([]sent, len(offsets))
	// Sized to the whole schedule, so the releasing loop never blocks on slow
	// senders: the schedule is kept even when the server is not keeping up.
	due := make(chan int, len(offsets))
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				out[i].begin = time.Now()
				send(i)
				out[i].end = time.Now()
			}
		}()
	}
	for i, off := range offsets {
		at := start.Add(off)
		if !waitUntil(ctx, at) {
			break
		}
		out[i].intended = at
		out[i].late = time.Since(at)
		due <- i
	}
	close(due)
	wg.Wait()
	return out
}
