package deque

// Len returns a point-in-time estimate of the number of elements, exact when
// no concurrent operations are in flight.
func (d *Deque[T]) Len() int {
	n := d.bottom.Load() - d.top.Load()
	if n < 0 {
		return 0
	}
	return int(n)
}
