// Command compare reads result files written by `bench -out` and prints one
// row per (metric, workload).
//
//	go run ./compare -manifest ../BENCHMARK.json parent.jsonl change.jsonl
//	go run ./compare -manifest ../BENCHMARK.json runs.jsonl
//
// With two files the row holds the parent's and the change's median and
// quartiles and a verdict from the bound BENCHMARK.json fixes for the metric:
// worse (the change's median is worse by more than the bound), unresolved
// (either side's spread, the distance between its quartiles as a share of its
// median, is wider than the bound), better (the medians differ by more than
// the parent's own spread and the change wins at least nine tenths of the
// runs paired by seed, ties counting for neither), or within-bound. With one
// file it prints each metric's spread against its bound, the check a
// benchmark must pass before it is trusted. Per-layer metrics have no bound
// and get no verdict.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
)

type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDecl `json:"end_to_end"`
	PerLayer []metricDecl `json:"per_layer"`
}

// line is one run as `bench -out` wrote it.
type line struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Failed   int    `json:"failed"`
	Metrics  map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// key names one series of values: a metric on a workload.
type key struct{ workload, metric string }

// runs holds every value of every series, with the seed of the run it is from.
type runs struct {
	values map[key][]float64
	seeds  map[key][]int64
	failed map[string]int
}

func readRuns(path string) (*runs, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	r := &runs{values: map[key][]float64{}, seeds: map[key][]int64{}, failed: map[string]int{}}
	sc := bufio.NewScanner(bytes.NewReader(b))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for n := 1; sc.Scan(); n++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, n, err)
		}
		r.failed[l.Workload] += l.Failed
		for name, m := range l.Metrics {
			k := key{l.Workload, name}
			r.values[k] = append(r.values[k], m.Value)
			r.seeds[k] = append(r.seeds[k], l.Seed)
		}
	}
	return r, sc.Err()
}

// quartiles returns the first quartile, median and third quartile as
// Python's statistics.quantiles(values, n=4) gives them (exclusive method),
// which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld == 0 {
		return 0, 0, 0
	}
	if ld == 1 {
		return data[0], data[0], data[0]
	}
	const n = 4
	cut := func(i int) float64 {
		j := i * (ld + 1) / n
		if j < 1 {
			j = 1
		}
		if j > ld-1 {
			j = ld - 1
		}
		delta := i*(ld+1) - j*n
		return (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(q1, q2, q3 float64) float64 {
	if q2 == 0 {
		return 0
	}
	s := (q3 - q1) / q2
	if s < 0 {
		s = -s
	}
	return s
}

// worsening is how much worse b is than a, as a share of a (negative: better).
func worsening(d metricDecl, a, b float64) float64 {
	if a == 0 {
		return 0
	}
	if d.Better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// wins counts, over the runs the two sides share a seed for, how many the
// change won and lost.
func wins(d metricDecl, parent, change *runs, k key) (won, lost int) {
	bySeed := map[int64]float64{}
	for i, s := range parent.seeds[k] {
		bySeed[s] = parent.values[k][i]
	}
	for i, s := range change.seeds[k] {
		p, ok := bySeed[s]
		if !ok {
			continue
		}
		switch w := worsening(d, p, change.values[k][i]); {
		case w < 0:
			won++
		case w > 0:
			lost++
		}
	}
	return won, lost
}

func verdict(d metricDecl, parent, change *runs, k key) string {
	p1, p2, p3 := quartiles(parent.values[k])
	c1, c2, c3 := quartiles(change.values[k])
	ps, cs := spread(p1, p2, p3), spread(c1, c2, c3)
	w := worsening(d, p2, c2)
	switch {
	case ps > d.Bound || cs > d.Bound:
		return "unresolved"
	case w > d.Bound:
		return "worse"
	}
	won, lost := wins(d, parent, change, k)
	if -w > ps && won+lost > 0 && float64(won) >= 0.9*float64(won+lost) {
		return "better"
	}
	return "within-bound"
}

func compare(w io.Writer, man *manifest, parent, change *runs) {
	fmt.Fprintf(w, "%-18s %-34s %-6s %38s %38s %8s  %s\n", "workload", "metric", "unit",
		"parent median [q1, q3] (n)", "change median [q1, q3] (n)", "change", "verdict")
	row := func(d metricDecl, wl string, bounded bool) {
		k := key{wl, d.Name}
		if len(parent.values[k]) == 0 || len(change.values[k]) == 0 {
			return
		}
		p1, p2, p3 := quartiles(parent.values[k])
		c1, c2, c3 := quartiles(change.values[k])
		v := ""
		if bounded {
			won, lost := wins(d, parent, change, k)
			v = fmt.Sprintf("%s (bound %.0f%%, better: %s, paired wins %d/%d)", verdict(d, parent, change, k), 100*d.Bound, d.Better, won, won+lost)
		}
		delta := 0.0
		if p2 != 0 {
			delta = 100 * (c2 - p2) / p2
		}
		fmt.Fprintf(w, "%-18s %-34s %-6s %38s %38s %+7.1f%%  %s\n", wl, d.Name, d.Unit,
			fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", p2, p1, p3, len(parent.values[k])),
			fmt.Sprintf("%.5g [%.5g, %.5g] (%d)", c2, c1, c3, len(change.values[k])), delta, v)
	}
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			row(d, wl.Name, true)
		}
		for _, d := range man.PerLayer {
			row(d, wl.Name, false)
		}
		if p, c := parent.failed[wl.Name], change.failed[wl.Name]; p+c > 0 {
			fmt.Fprintf(w, "%-18s failed operations: parent %d, change %d\n", wl.Name, p, c)
		}
	}
}

// spreads prints each end-to-end metric's spread over the runs of one file
// against its bound, and reports whether every spread is within it.
func spreads(w io.Writer, man *manifest, r *runs) bool {
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %4s %12s %12s %12s %8s %7s\n", "workload", "metric", "n", "q1", "median", "q3", "spread", "bound")
	for _, wl := range man.Workloads {
		for _, d := range man.EndToEnd {
			k := key{wl.Name, d.Name}
			if len(r.values[k]) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(r.values[k])
			s := spread(q1, q2, q3)
			mark := ""
			switch {
			case d.Name == "setup_s":
				mark = "(spread not gated)"
			case s > d.Bound:
				mark, ok = "WIDER THAN BOUND", false
			case s > d.Bound/3:
				mark = "above a third of the bound"
			}
			fmt.Fprintf(w, "%-18s %-20s %4d %12.5g %12.5g %12.5g %7.2f%% %6.0f%%  %s\n",
				wl.Name, d.Name, len(r.values[k]), q1, q2, q3, 100*s, 100*d.Bound, mark)
		}
		if f := r.failed[wl.Name]; f > 0 {
			fmt.Fprintf(w, "%-18s failed operations: %d\n", wl.Name, f)
			ok = false
		}
	}
	return ok
}

func main() {
	manPath := flag.String("manifest", "BENCHMARK.json", "path of BENCHMARK.json")
	flag.Parse()
	if flag.NArg() < 1 || flag.NArg() > 2 {
		fmt.Fprintln(os.Stderr, "usage: compare [-manifest BENCHMARK.json] <runs.jsonl> [<change.jsonl>]")
		os.Exit(2)
	}
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "compare:", err)
		os.Exit(1)
	}
	b, err := os.ReadFile(*manPath)
	if err != nil {
		fail(err)
	}
	var man manifest
	if err := json.Unmarshal(b, &man); err != nil {
		fail(err)
	}
	first, err := readRuns(flag.Arg(0))
	if err != nil {
		fail(err)
	}
	if flag.NArg() == 1 {
		if !spreads(os.Stdout, &man, first) {
			os.Exit(1)
		}
		return
	}
	second, err := readRuns(flag.Arg(1))
	if err != nil {
		fail(err)
	}
	compare(os.Stdout, &man, first, second)
}
