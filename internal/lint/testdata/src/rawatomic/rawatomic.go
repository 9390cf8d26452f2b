// Golden case for the rawatomic analyzer: sync/atomic's functions are
// rejected, its typed API is not.
package rawatomic

import "sync/atomic"

type counter struct {
	hits  int64
	typed atomic.Int64
}

func (c *counter) record() {
	atomic.AddInt64(&c.hits, 1) // want:rawatomic: atomic.AddInt64 on a plain operand
	c.typed.Add(1)
}

func (c *counter) snapshot() int64 {
	return c.hits + c.typed.Load()
}

func (c *counter) reset() {
	atomic.StoreInt64(&c.hits, 0) // want:rawatomic: atomic.StoreInt64 on a plain operand
	c.typed.Store(0)
}
