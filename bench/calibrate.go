package main

import (
	"sync"
	"time"
)

// Host-speed calibration. The throughput of the small shared hosts this
// benchmark runs on moves by tens of percent for minutes at a time (a 12-minute
// trial on the nproc = 2 reference host saw 15-second medians of one fixed DAG
// rep range from 415 to 612 ms with nothing else running in the guest), which
// no statistic taken inside a run can remove. So every timed section is
// bracketed by a fixed piece of work from this file — integer hashing in cache
// plus streaming passes over memory, on every worker — and each time is scaled
// by nominal ÷ measured calibration time: times are reported as on a host
// running at the reference host's quiet speed. In that trial the scaling cut
// the spread of the 15-second medians from 12 % to 4 %. Ratios of two timings
// of the same rep need no scaling and get none. The calibration is the
// benchmark's own code: no change to the repository can speed it up.

const (
	// calibNominal is what one calibration takes on the reference host
	// (nproc = 2, Xeon 2.1 GHz guest) when it is quiet.
	calibNominal = 52400 * time.Microsecond

	calibHashWords  = 8 << 10 // 64 KiB per worker: stays in cache
	calibHashPasses = 3000
	calibMemWords   = 2 << 20 // 16 MiB per worker: streams through memory
	calibMemPasses  = 24
)

// calibrator owns the buffers the calibration works on.
type calibrator struct {
	hash, mem [][]uint64
	sink      uint64
}

func newCalibrator(workers int) *calibrator {
	c := &calibrator{hash: make([][]uint64, workers), mem: make([][]uint64, workers)}
	for w := range c.hash {
		c.hash[w] = make([]uint64, calibHashWords)
		c.mem[w] = make([]uint64, calibMemWords)
	}
	c.run() // first touch of the buffers
	return c
}

// run does the fixed work once and returns how long it took.
func (c *calibrator) run() time.Duration {
	start := time.Now()
	sums := make([]uint64, len(c.hash))
	var wg sync.WaitGroup
	for w := range c.hash {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			h := uint64(1469598103934665603)
			for p := 0; p < calibHashPasses; p++ {
				for _, v := range c.hash[w] {
					h = (h ^ v) * 1099511628211
				}
			}
			mem := c.mem[w]
			for p := 0; p < calibMemPasses; p++ {
				for i := 0; i < len(mem); i += 8 {
					h += mem[i]
					mem[i] = h
				}
			}
			sums[w] = h
		}(w)
	}
	wg.Wait()
	for _, s := range sums {
		c.sink += s
	}
	return time.Since(start)
}

// hostSpeed is the host's speed relative to the reference host over a
// section bracketed by two calibrations: multiply a time measured in the
// section by it (divide a rate) to get the reference-host value.
func hostSpeed(before, after time.Duration) float64 {
	return float64(2*calibNominal) / float64(before+after)
}
