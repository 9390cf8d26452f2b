// Command ftbench reproduces the paper's experimental evaluation: it runs
// the benchmark suite under the sequential, baseline, and fault-tolerant
// executors across the fault scenarios of §VI and prints each table and
// figure's rows.
//
// Usage:
//
//	ftbench -experiment all                 # full suite, default sizes
//	ftbench -experiment fig5a -runs 10      # one figure, paper-style 10 runs
//	ftbench -sizes quick -experiment table2 # smoke-sized inputs
//	ftbench -cores 1,2,4,8 -experiment fig4
//
// Experiments: table1, fig4, fig5a, fig5b, table2, fig6, fig7, counts, all.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"ftdag/internal/harness"
)

func main() {
	var (
		experiment = flag.String("experiment", "all", "experiment to run: "+strings.Join(harness.Experiments, ", ")+", or all")
		sizes      = flag.String("sizes", "bench", "problem sizes: quick, bench, or paper")
		runs       = flag.Int("runs", 5, "repetitions per measurement (paper used 10)")
		cores      = flag.String("cores", "1,2,4,8", "comma-separated worker counts for the P sweeps")
		workers    = flag.Int("workers", 0, "worker count for single-P fault experiments (default: max of -cores)")
		seed       = flag.Int64("seed", 42, "fault-site selection seed")
		verify     = flag.Bool("verify", false, "verify results against reference implementations (slower)")
		csvDir     = flag.String("csv", "", "also write each experiment's rows as CSV files into this directory")
	)
	flag.Parse()

	var sz harness.Sizes
	switch *sizes {
	case "quick":
		sz = harness.QuickSizes()
	case "bench":
		sz = harness.BenchSizes()
	case "paper":
		sz = harness.PaperSizes()
	default:
		fmt.Fprintf(os.Stderr, "ftbench: unknown -sizes %q (quick, bench, paper)\n", *sizes)
		os.Exit(2)
	}

	var cs []int
	for _, f := range strings.Split(*cores, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 1 {
			fmt.Fprintf(os.Stderr, "ftbench: bad -cores entry %q\n", f)
			os.Exit(2)
		}
		cs = append(cs, n)
	}

	h := harness.New(harness.Options{
		Sizes:   sz,
		Runs:    *runs,
		Cores:   cs,
		Workers: *workers,
		Seed:    *seed,
		Verify:  *verify,
		Out:     os.Stdout,
		CSVDir:  *csvDir,
	})
	if err := h.Run(*experiment); err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
		os.Exit(1)
	}
}
