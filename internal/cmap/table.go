package cmap

import (
	"sync"
	"sync/atomic"
)

const (
	// pageBits sizes a page of the dense part: 64 cells, 512 bytes of 8-byte
	// pointers — the largest object the allocator sizes exactly (a larger
	// one carries a header that pushes it into the next size class, 19 %
	// up for 4 KiB), and small enough that a 200-task job pays for four.
	pageBits = 6
	pageSize = 1 << pageBits

	// TableCap bounds the direct-indexed keys: a key in [0, TableCap) has a
	// cell of its own, every other key lives in the far Map. It bounds what
	// the dense part can ever cost — see Table.
	TableCap = 1 << 22

	maxPages = TableCap / pageSize

	// tableStripes is the number of insert locks. Neighbouring keys take
	// different stripes, so workers expanding one region of a graph do not
	// queue behind each other.
	tableStripes = 64
)

type page[T any] [pageSize]atomic.Pointer[T]

// directory is the list of pages, indexed by key >> pageBits. A nil element
// is a page nobody has inserted into yet.
type directory[T any] []atomic.Pointer[page[T]]

// stripe serializes the inserts and updates of the keys that select it.
type stripe struct {
	mu sync.Mutex
	n  int // entries inserted under mu
}

// Table is a concurrent map from int64 keys to non-nil *T with Map's
// contract — LoadOrStore builds a value at most once per key and only when
// the key is absent — and no hashing for the keys task graphs actually use.
//
// A key in [0, TableCap) is direct-indexed: the directory gives its page, the
// page its cell, and the cell holds the pointer. A hit is three dependent
// loads with no lock and no read-modify-write. Pages are allocated when the
// first key of their range is inserted; the directory grows by copying, so a
// reader never waits for a writer and at worst misses a key whose insert it
// overlapped. Any other key — negative, or TableCap and above — goes to a
// Map that is allocated when the first such key is stored. Which path a key
// takes depends on the key alone.
//
// Memory: however the keys are spread, the pages together never exceed
// TableCap pointers (32 MiB with 8-byte pointers) and the directory never
// exceeds TableCap/64 pointers (512 KiB). Keys numbered densely from 0 cost
// one pointer each, rounded up to a page, plus a directory pointer per 64;
// the worst spread — keys a page apart — costs a page per key. An empty Table
// is the struct alone (about 1 KiB) and allocates nothing.
//
// The zero value is an empty table. A Table must not be copied after first
// use.
type Table[T any] struct {
	dir atomic.Pointer[directory[T]]
	far atomic.Pointer[Map[*T]]

	// grow serializes page installs, directory growth and the creation of
	// far. Installs and growth exclude each other so that a copy of the
	// directory cannot miss a page.
	grow sync.Mutex

	stripes [tableStripes]stripe
}

func dense(key int64) bool { return uint64(key) < TableCap }

func (t *Table[T]) stripe(key int64) *stripe { return &t.stripes[key&(tableStripes-1)] }

// cell returns the cell of a dense key, or nil when its page does not exist
// in the directory the caller observes. It takes no lock.
func (t *Table[T]) cell(key int64) *atomic.Pointer[T] {
	dir := t.dir.Load()
	if dir == nil {
		return nil
	}
	i := int(key >> pageBits)
	if i >= len(*dir) {
		return nil
	}
	p := (*dir)[i].Load()
	if p == nil {
		return nil
	}
	return &p[key&(pageSize-1)]
}

// ensure returns the cell of a dense key, installing its page first if need
// be.
func (t *Table[T]) ensure(key int64) *atomic.Pointer[T] {
	if c := t.cell(key); c != nil {
		return c
	}
	return t.install(key)
}

// install puts the page of a dense key into the directory, growing the
// directory to reach it, unless another caller got there first, and returns
// the key's cell.
func (t *Table[T]) install(key int64) *atomic.Pointer[T] {
	i := int(key >> pageBits)
	t.grow.Lock()
	defer t.grow.Unlock()
	var dir directory[T]
	if d := t.dir.Load(); d != nil {
		dir = *d
	}
	if i >= len(dir) {
		// At least double, so the copies made on the way to n pages total
		// fewer than 2n pointers.
		grown := make(directory[T], min(maxPages, max(i+1, 2*len(dir), 4)))
		for j := range dir {
			grown[j].Store(dir[j].Load())
		}
		dir = grown
		t.dir.Store(&grown)
	}
	p := dir[i].Load()
	if p == nil {
		p = new(page[T])
		dir[i].Store(p)
	}
	return &p[key&(pageSize-1)]
}

// farMap returns the Map of the keys outside [0, TableCap), creating it on
// first use.
func (t *Table[T]) farMap() *Map[*T] {
	if m := t.far.Load(); m != nil {
		return m
	}
	t.grow.Lock()
	defer t.grow.Unlock()
	m := t.far.Load()
	if m == nil {
		m = New[*T]()
		t.far.Store(m)
	}
	return m
}

// Load returns the value stored for key, if any.
func (t *Table[T]) Load(key int64) (*T, bool) {
	if !dense(key) {
		if m := t.far.Load(); m != nil {
			return m.Load(key)
		}
		return nil, false
	}
	if c := t.cell(key); c != nil {
		v := c.Load()
		return v, v != nil
	}
	return nil, false
}

// LoadOrStore returns the existing value for key if present. Otherwise it
// stores the value returned by mk, which must not be nil, and returns it. mk
// is invoked at most once per key, under the key's insert lock, and only when
// the key is absent — the paper's atomic INSERTTASKIFABSENT. inserted reports
// whether mk's value was stored.
func (t *Table[T]) LoadOrStore(key int64, mk func() *T) (v *T, inserted bool) {
	if !dense(key) {
		return t.farMap().LoadOrStore(key, mk)
	}
	c := t.ensure(key)
	if v := c.Load(); v != nil {
		return v, false
	}
	s := t.stripe(key)
	s.mu.Lock()
	if v := c.Load(); v != nil {
		s.mu.Unlock()
		return v, false
	}
	v = mk()
	if v == nil {
		s.mu.Unlock()
		panic("cmap: Table.LoadOrStore: mk returned nil")
	}
	c.Store(v)
	s.n++
	s.mu.Unlock()
	return v, true
}

// Update applies f to the current value for key (nil, false if absent) under
// the key's insert lock and stores the result, which must not be nil. It
// returns the stored value. A concurrent Load sees the old value or the new.
func (t *Table[T]) Update(key int64, f func(old *T, ok bool) *T) *T {
	if !dense(key) {
		return t.farMap().Update(key, f)
	}
	c := t.ensure(key)
	s := t.stripe(key)
	s.mu.Lock()
	old := c.Load()
	v := f(old, old != nil)
	if v == nil {
		s.mu.Unlock()
		panic("cmap: Table.Update: f returned nil")
	}
	c.Store(v)
	if old == nil {
		s.n++
	}
	s.mu.Unlock()
	return v
}

// Len returns the number of entries. It locks each stripe in turn, so the
// result is a consistent per-stripe snapshot, not a global one.
func (t *Table[T]) Len() int {
	n := 0
	for i := range t.stripes {
		s := &t.stripes[i]
		s.mu.Lock()
		n += s.n
		s.mu.Unlock()
	}
	if m := t.far.Load(); m != nil {
		n += m.Len()
	}
	return n
}

// Range calls f for every entry until f returns false: the keys in
// [0, TableCap) in ascending order, then the others in no particular order.
// It holds no lock while f runs on a dense key. Entries inserted concurrently
// may or may not be visited.
func (t *Table[T]) Range(f func(key int64, v *T) bool) {
	if d := t.dir.Load(); d != nil {
		for i := range *d {
			p := (*d)[i].Load()
			if p == nil {
				continue
			}
			for j := range p {
				if v := p[j].Load(); v != nil && !f(int64(i)<<pageBits|int64(j), v) {
					return
				}
			}
		}
	}
	if m := t.far.Load(); m != nil {
		m.Range(f)
	}
}
