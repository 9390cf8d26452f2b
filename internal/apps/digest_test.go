package apps_test

import (
	"testing"

	"ftdag/internal/core"
	"ftdag/internal/harness"
	"ftdag/internal/journal"
)

// pinnedDigests are the sink digests (journal.Digest) of the five apps at
// harness.QuickSizes. A kernel rewritten for speed must reproduce every
// output bit for bit; a changed digest here means the arithmetic changed. The
// BenchSizes digests are recorded in EXPERIMENTS.md "What bounds the apps".
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

// TestPinnedDigests runs every app sequentially at QuickSizes, with the size
// map's own seeds, and checks each sink against its pinned digest. That the
// executors reproduce the sequential sink bit for bit is checked by
// TestFTFaultFreeMatchesReference and TestBaselineMatchesReference. Each app
// runs twice: the second run's block.Alloc takes the tiles the first handed
// back when it ended, poisoned (main_test.go), so a kernel that reads a word
// of its output before writing it changes the second digest.
func TestPinnedDigests(t *testing.T) {
	for name, cfg := range harness.QuickSizes() {
		t.Run(name, func(t *testing.T) {
			if (name == "LU" || name == "Cholesky") && fusesMulSub() {
				t.Skip("this build fuses multiply-subtract into FMA; the digest is pinned for unfused arithmetic")
			}
			a, err := harness.MakeApp(name, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, run := range []string{"cold", "warm"} {
				seq, err := core.NewSequential(a.Spec(), a.Retention()).Run()
				if err != nil {
					t.Fatalf("sequential (%s): %v", run, err)
				}
				if got, want := journal.Digest(seq.Sink), pinnedDigests[name]; got != want {
					t.Fatalf("sequential sink digest (%s) = %s, want %s", run, got, want)
				}
			}
		})
	}
}
