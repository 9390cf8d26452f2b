package apps_test

import (
	"math"
	"testing"

	"ftdag/internal/core"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
)

// pinnedDigests are the sink digests (journal.Digest) of the five apps at
// harness.QuickSizes, benchDigests at harness.BenchSizes (also recorded in
// EXPERIMENTS.md "What bounds the apps"). A kernel rewritten for speed must
// reproduce every output bit for bit; a changed digest here means the
// arithmetic changed. QuickSizes run LU, Cholesky and FW on 16×16 tiles,
// BenchSizes on 32×32 ones, both through tile's widest assembly bodies
// where the CPU has them (MulSub and MinPlus in zmm on AVX-512) and through
// its Go bodies in race builds (tile's TestBodyPerBuild).
// LCS, SW and FW only add and compare integers, so theirs hold on every
// build. LU's and Cholesky's hold where a multiply and a subtract round twice,
// as on amd64 (Go 1.24 fuses only an explicit math.FMA there, at every GOAMD64
// level); a compiler that fuses them into one FMA (arm64, ppc64le, s390x)
// rounds once and gets other bits, so the test asks the compiler rather than
// naming architectures. LCS's and SW's are of the sink's cells and, for SW,
// its running maximum: the copy of the last column the tile appends to them
// is checked against the cells word for word instead (exported).
var pinnedDigests = map[string]string{
	"LCS":      "a6d124c54c51658a",
	"LU":       "494bd4ce7f32bbf7",
	"Cholesky": "1bd434ae9b6d8392",
	"FW":       "758ac5efbde547a1",
	"SW":       "6e631d385f91ecdb",
}

var benchDigests = map[string]string{
	"LCS":      "9434a17db1a4a84d",
	"LU":       "06b2d17d4197284e",
	"Cholesky": "fce12f6cc237aa9d",
	"FW":       "c8a0c1a5727d92c1",
	"SW":       "e50b4ea4e9e7d8de",
}

// Operands of fusesMulSub, package variables so the compiler cannot fold the
// expression: x·y = 1 − 2⁻⁶⁰ exactly, which rounds to 1.
var fmaX, fmaY, fmaS = 1 + 0x1p-30, 1 - 0x1p-30, 1.0

// fusesMulSub reports whether this build fuses s -= x*y, the kernels' update,
// into one FMA: rounded twice the difference is 0, fused it is 2⁻⁶⁰.
func fusesMulSub() bool {
	s := fmaS
	s -= fmaX * fmaY
	return s != 0
}

// TestPinnedDigests runs every app sequentially at QuickSizes and at
// BenchSizes, with the size maps' own seeds, and checks each sink against
// its pinned digest. That the executors reproduce the sequential sink bit for
// bit is checked by TestFTFaultFreeMatchesReference and
// TestBaselineMatchesReference. Each QuickSizes app runs twice: the second
// run's block.Alloc takes the tiles the first handed back when it ended,
// poisoned (main_test.go), so a kernel that reads a word of its output before
// writing it changes the second digest.
func TestPinnedDigests(t *testing.T) {
	for _, sizes := range []struct {
		prefix  string
		sizes   harness.Sizes
		digests map[string]string
		runs    []string
	}{
		{"", harness.QuickSizes(), pinnedDigests, []string{"cold", "warm"}},
		{"BenchSizes/", harness.BenchSizes(), benchDigests, []string{"cold"}},
	} {
		for name, cfg := range sizes.sizes {
			t.Run(sizes.prefix+name, func(t *testing.T) {
				if (name == "LU" || name == "Cholesky") && fusesMulSub() {
					t.Skip("this build fuses multiply-subtract into FMA; the digest is pinned for unfused arithmetic")
				}
				a, err := harness.MakeApp(name, cfg)
				if err != nil {
					t.Fatal(err)
				}
				for _, run := range sizes.runs {
					seq, err := core.NewSequential(a.Spec(), a.Retention()).Run()
					if err != nil {
						t.Fatalf("sequential (%s): %v", run, err)
					}
					sink := exported(t, name, cfg.B, seq.Sink)
					if got, want := journal.Digest(sink), sizes.digests[name]; got != want {
						t.Fatalf("sequential sink digest (%s) = %s, want %s", run, got, want)
					}
				}
			})
		}
	}
}

// exported returns the payload an LCS or SW sink of b×b cells held before
// each tile appended a copy of its last column — the cells, then SW's
// running maximum — after checking that the words after it are that column,
// bit for bit. Any other app's sink is returned as it is.
func exported(t *testing.T, name string, b int, sink []float64) []float64 {
	t.Helper()
	var n int
	switch name {
	case "LCS":
		n = b * b
	case "SW":
		n = b*b + 1
	default:
		return sink
	}
	if len(sink) != n+b {
		t.Fatalf("%s sink has %d words, want %d", name, len(sink), n+b)
	}
	for r, w := range sink[n:] {
		if c := sink[r*b+b-1]; math.Float64bits(w) != math.Float64bits(c) {
			t.Fatalf("%s sink's exported column word %d is %v, its last column's %v", name, r, w, c)
		}
	}
	return sink[:n]
}
