package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"
	"time"
)

func TestScheduleIsAPureFunctionOfItsArguments(t *testing.T) {
	const rate, d = 200.0, 2 * time.Second
	a, b := schedule(7, rate, d), schedule(7, rate, d)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same (seed, rate, duration) gave two different schedules")
	}
	if reflect.DeepEqual(a, schedule(8, rate, d)) {
		t.Fatal("another seed gave the same schedule")
	}
	// 400 expected arrivals; 5 standard deviations of a Poisson count is 100.
	if n := len(a); n < 300 || n > 500 {
		t.Fatalf("%d arrivals at %v/s for %v, want about 400", n, rate, d)
	}
	for i, off := range a {
		if off < 0 || off >= d || (i > 0 && off < a[i-1]) {
			t.Fatalf("offset %d = %v is outside [0, %v) or out of order", i, off, d)
		}
	}
}

// A server stall must show in the latency of the requests that were due
// during it, because latency runs from the intended send time: with one
// connection, the request after the stalled one cannot start until the stall
// ends, and a generator that timed it from its actual start would hide that.
func TestOpenLoopChargesAStallToLaterRequests(t *testing.T) {
	const stall, gap, stalled = 200 * time.Millisecond, 10 * time.Millisecond, 3
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if served.Add(1)-1 == stalled {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()

	offsets := make([]time.Duration, 12)
	for i := range offsets {
		offsets[i] = time.Duration(i) * gap
	}
	out := openLoop(context.Background(), time.Now(), offsets, 1, func(int) {
		resp, err := http.Get(srv.URL)
		if err != nil {
			t.Error(err)
			return
		}
		_ = resp.Body.Close()
	})
	for i := stalled; i < stalled+5; i++ {
		// Request i was due (i-stalled)*gap into the stall and cannot have
		// been answered before the stall ended.
		want := stall - time.Duration(i-stalled)*gap
		if got := out[i].latency(); got < want {
			t.Errorf("request %d: latency %v from its intended send time, want at least %v", i, got, want)
		}
	}
	after := out[stalled+1]
	if wait := after.begin.Sub(after.intended); wait < stall-2*gap {
		t.Errorf("request %d started %v after it was due; the stall should have held it about %v", stalled+1, wait, stall-gap)
	}
	// The generator itself kept to the schedule through the stall: lateness
	// is the release delay, not the wait for a free connection.
	if after.late >= stall-2*gap {
		t.Errorf("request %d was released %v late: the stalled sender blocked the schedule", stalled+1, after.late)
	}
}

func TestOpenLoopCapsConnections(t *testing.T) {
	const conns = 2
	var inFlight, peak atomic.Int64
	offsets := make([]time.Duration, 20) // all due at once
	openLoop(context.Background(), time.Now(), offsets, conns, func(int) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		inFlight.Add(-1)
	})
	if p := peak.Load(); p > conns {
		t.Fatalf("%d requests in flight at once, cap is %d", p, conns)
	}
}
