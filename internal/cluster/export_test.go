package cluster

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	c := r.Candidates(key, 1)
	if len(c) == 0 {
		return ""
	}
	return c[0]
}
