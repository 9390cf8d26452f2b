// Golden case for function declarations without a body, as an assembly
// implementation leaves them: errsink and the call graph skip the
// declaration instead of walking its nil body, and its callers are analyzed
// as usual.
package bodyless

import "os"

// mulSub is implemented in assembly.
//
//go:noescape
func mulSub(c, a, b *float64, n int)

func cpuid(eaxArg, ecxArg uint32) (eax, ebx, ecx, edx uint32)

type kernel struct{ f *os.File }

// run is a method without a body.
func (k *kernel) run(n int)

func update(c, a, b []float64, n int) {
	mulSub(&c[0], &a[0], &b[0], n)
}

func hasLeaf7() bool {
	maxLeaf, _, _, _ := cpuid(0, 0)
	return maxLeaf >= 7
}

func (k *kernel) flush() {
	k.run(1)
	k.f.Sync() // want:errsink: error from (*os.File).Sync is discarded
}
