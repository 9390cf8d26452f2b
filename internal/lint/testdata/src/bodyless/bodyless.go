// Golden case for function declarations without a body, as an assembly
// implementation leaves them: every analyzer and the call graph skip the
// declaration instead of walking its nil body, and its callers are analyzed
// as usual.
//
//lint:deterministic golden case: a body-less kernel is not a finding
package bodyless

import "sync"

var mu sync.Mutex

// mulSub is implemented in assembly.
//
//go:noescape
func mulSub(c, a, b *float64, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

type kernel struct{ ch chan int }

// run is a method without a body.
func (k *kernel) run(n int)

func update(c, a, b []float64, n int) {
	mu.Lock()
	mulSub(&c[0], &a[0], &b[0], n)
	mu.Unlock()
}

func hasLeaf7() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	return maxLeaf >= 7
}

func (k *kernel) blocked() {
	mu.Lock()
	k.run(1)
	k.ch <- 1 // want:lockscope: channel send while mutex "mu" is held
	mu.Unlock()
}
