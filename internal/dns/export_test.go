package dns

import (
	"bytes"
	"fmt"
	"net/netip"
	"sync"
)

// Cache returns the resolver's infrastructure cache.
func (r *Resolver) Cache() *InfraCache { return r.cache }

// SetCache replaces the resolver's infrastructure cache with one another
// resolver uses. Call before issuing queries.
func (r *Resolver) SetCache(c *InfraCache) { r.cache = c }

// SetReleasePoison turns the release poison (TestMain turns it on) on or
// off. It is one package variable: flip it only where no other test body
// runs — a top-level test's prologue, before anything calls t.Parallel.
func SetReleasePoison(on bool) { poisonReleased = on }

// CheckCodecs re-binds every handler bound on m behind one that holds the
// fast codec to the reference codec on each query the handler receives
// and each response it returns: the two encoders must write the same
// bytes, and the two decoders must read those bytes back to equal
// messages (codecMismatch, FuzzMessageDecode's comparator). Call it once
// the world is built, before anything exchanges. The function it returns
// reports how many messages were checked and the first disagreement.
func CheckCodecs(m *MemNet) func() (checked int, mismatch string) {
	var mu sync.Mutex
	var checked int
	var first string
	check := func(msg *Message) {
		d := encodeMismatch(msg)
		mu.Lock()
		defer mu.Unlock()
		if checked++; first == "" {
			first = d
		}
	}
	var bound []netip.Addr
	t := m.routes.table.Load()
	for i := range t.buckets {
		for e := t.buckets[i].Load(); e != nil; e = e.next {
			bound = append(bound, e.key)
		}
	}
	for _, addr := range bound {
		m.updateRoute(addr, func(r *memRoute) {
			if h := r.h; h != nil {
				r.h = HandlerFunc(func(q *Message, from netip.Addr) *Message {
					check(q)
					resp := h.ServeDNS(q, from)
					if resp != nil {
						check(resp)
					}
					return resp
				})
			}
		})
	}
	return func() (int, string) {
		mu.Lock()
		defer mu.Unlock()
		return checked, first
	}
}

// encodeMismatch encodes m with both codecs and describes the first
// disagreement: verdicts, bytes, or (through codecMismatch) what the two
// decoders make of those bytes.
func encodeMismatch(m *Message) string {
	wire, err := m.Encode()
	ref, refErr := ReferenceEncode(m)
	if err != nil && refErr != nil {
		return ""
	} else if err != nil || refErr != nil || !bytes.Equal(wire, ref) {
		return fmt.Sprintf("encodings of %v disagree:\nfast: %x (%v)\nref:  %x (%v)", m, wire, err, ref, refErr)
	}
	_, msg := codecMismatch(wire)
	return msg
}
