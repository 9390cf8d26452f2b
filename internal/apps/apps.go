// Package apps hosts the five benchmark applications of the paper's
// evaluation (§VI, Table I): LCS, Smith-Waterman, Floyd-Warshall, LU
// decomposition, and Cholesky factorization, each expressed as a dynamic
// task graph over tiles of the problem matrix.
//
// Every application provides real kernels (actual dynamic-programming or
// factorization arithmetic), a sequential reference implementation used to
// verify results, and a recommended block-version retention matching the
// paper's memory-management choice for that benchmark (single-assignment for
// LCS, memory reuse for LU/Cholesky/SW, two versions per block for
// Floyd-Warshall).
package apps

import (
	"fmt"

	"ftdag/internal/graph"
)

// App is a benchmark instance: a task graph plus the knowledge needed to run
// and verify it.
type App interface {
	// Name is the benchmark's short name as used in the paper's tables
	// (LCS, SW, FW, LU, Cholesky).
	Name() string
	// Spec is the task graph.
	Spec() graph.Spec
	// Retention is the block store retention the paper's configuration
	// implies: 0 single-assignment, 1 reuse, 2 two versions per block.
	Retention() int
	// VerifySink checks the sink task's output against the sequential
	// reference implementation.
	VerifySink(sink []float64) error
}

// Config sizes a benchmark instance.
type Config struct {
	N    int   // problem size (matrix/sequence dimension)
	B    int   // tile size; must divide N
	Seed int64 // input generation seed
}

func (c Config) Tiles() int { return c.N / c.B }

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.N <= 0 || c.B <= 0 {
		return fmt.Errorf("apps: N and B must be positive (N=%d B=%d)", c.N, c.B)
	}
	if c.N%c.B != 0 {
		return fmt.Errorf("apps: tile size %d must divide problem size %d", c.B, c.N)
	}
	return nil
}

// Maker constructs an app instance from a config.
type Maker func(Config) (App, error)

// Rand is xorshift64*, the generator of every app's input. A pinned digest
// fixes an app's seed and salt: the same pair gives the same input.
type Rand struct{ s uint64 }

// NewRand returns a generator whose state is seed·2685821657736338717 + salt.
func NewRand(seed int64, salt uint64) *Rand {
	return &Rand{s: uint64(seed)*2685821657736338717 + salt}
}

// Next returns the next 64-bit output.
func (r *Rand) Next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545F4914F6CDD1D
}

// Float returns the next output as a float64 in [-1, 1).
func (r *Rand) Float() float64 { return float64(r.Next()>>11)/float64(1<<53)*2 - 1 }

// Seq returns n symbols in [0, alphabet): a sequence input of LCS or SW.
func (r *Rand) Seq(n int, alphabet uint64) []byte {
	s := make([]byte, n)
	for i := range s {
		s[i] = byte(r.Next() % alphabet)
	}
	return s
}
