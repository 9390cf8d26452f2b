package block

// Producer returns the task key recorded as producer of the given retained
// version, if present.
func (s *Store) Producer(b ID, version int) (int64, bool) {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if e := sl.find(version); e != nil {
		return e.producer, true
	}
	return 0, false
}

// Retained reports whether the given version is currently retained and not
// poisoned. It is a lookup: it copies nothing and counts no read.
func (s *Store) Retained(b ID, version int) bool {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	e := sl.find(version)
	return e != nil && !e.corrupted
}

// Versions returns the retained version numbers of a block, oldest written
// first.
func (s *Store) Versions(b ID) []int {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	out := make([]int, len(sl.entries))
	for i, e := range sl.entries {
		out[i] = e.version
	}
	return out
}

// Latest returns the highest retained, uncorrupted version of a block and a
// copy of its data.
func (s *Store) Latest(b ID) (int, []float64, bool) {
	sl := s.Slot(b)
	sl.mu.Lock()
	defer sl.mu.Unlock()
	var best *entry
	for i := range sl.entries {
		if e := &sl.entries[i]; !e.corrupted && (best == nil || e.version > best.version) {
			best = e
		}
	}
	if best == nil {
		return -1, nil, false
	}
	return best.version, clone(best.data, nil, nil), true
}
