package serve

import "whereru/internal/core"

// limits replaces a test server's computation slots (GOMAXPROCS in the
// product) and result-cache capacity (cacheEntries); 0 keeps each.
type limits struct{ slots, entries int }

// newLimited is New with l in place of the product's limits. New starts
// nothing, so nothing has read the fields replaced here.
func newLimited(study *core.Study, opts Options, l limits) *Server {
	s := New(study, opts)
	if l.slots > 0 {
		s.sem = make(chan struct{}, l.slots)
	}
	if l.entries > 0 {
		s.cache = newResultCache(l.entries)
	}
	return s
}
