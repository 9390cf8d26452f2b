// Package leakcheck fails a package's tests when a goroutine running this
// module's code outlives them. A package opts in from its TestMain:
//
//	func TestMain(m *testing.M) { leakcheck.Main(m) }
package leakcheck

import (
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// Main runs the tests and, if they pass, waits up to 5 s for every goroutine
// with a frame in module ftdag to exit (a closed pool's workers, a shut-down
// server's loops). Any that remain fail the package, with their stacks.
func Main(m *testing.M) {
	code := m.Run()
	if code == 0 {
		if stacks := leaked(5 * time.Second); len(stacks) > 0 {
			fmt.Fprintf(os.Stderr, "leakcheck: %d goroutine(s) outlived the tests:\n\n%s\n",
				len(stacks), strings.Join(stacks, "\n\n"))
			code = 1
		}
	}
	os.Exit(code)
}

// leaked polls until no goroutine but the caller's has a frame in this
// module, or until wait has passed; it returns the stacks still alive.
func leaked(wait time.Duration) []string {
	deadline := time.Now().Add(wait)
	for {
		buf := make([]byte, 1<<16)
		n := runtime.Stack(buf, true)
		for n == len(buf) {
			buf = make([]byte, 2*len(buf))
			n = runtime.Stack(buf, true)
		}
		// The caller's own record comes first; records are blank-line separated.
		var stacks []string
		for _, g := range strings.Split(string(buf[:n]), "\n\n")[1:] {
			if strings.Contains(g, "\nftdag/") || strings.Contains(g, "\ncreated by ftdag/") {
				stacks = append(stacks, g)
			}
		}
		if len(stacks) == 0 || time.Now().After(deadline) {
			return stacks
		}
		time.Sleep(10 * time.Millisecond)
	}
}
