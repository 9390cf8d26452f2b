package apps_test

import (
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
// BenchSizes on 32×32 ones, both through tile's AVX2 bodies where the CPU
// has them and through its Go bodies in race builds (tile's
// TestBodyPerBuild).
// LCS, SW and FW only add and compare integers, so theirs hold on every
// build. LU's and Cholesky's hold where a multiply and a subtract round twice,
// as on amd64 (Go 1.24 fuses only an explicit math.FMA there, at every GOAMD64
// level); a compiler that fuses them into one FMA (arm64, ppc64le, s390x)
// rounds once and gets other bits, so the test asks the compiler rather than
// naming architectures.
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
					if got, want := journal.Digest(seq.Sink), sizes.digests[name]; got != want {
						t.Fatalf("sequential sink digest (%s) = %s, want %s", run, got, want)
					}
				}
			})
		}
	}
}
