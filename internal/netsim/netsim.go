// Package netsim models the simulated Internet the measurement pipeline
// runs against: autonomous systems, IPv4 prefix allocations, sequential
// address assignment, origin-AS lookup (the BGP analog), and a shared
// simulation clock. The DNS "wire" itself is dns.MemNet (or real UDP); this
// package owns the address plan that makes geolocation and per-ASN
// analyses meaningful.
package netsim

import (
	"encoding/binary"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"

	"whereru/internal/simtime"
)

// ASN is an autonomous system number.
type ASN uint32

// AS describes an autonomous system in the simulation.
type AS struct {
	Number ASN
	// Name is the short network name, e.g. "AMAZON-02".
	Name string
	// Org is the operating organization, e.g. "Amazon".
	Org string
	// Country is the ISO 3166-1 alpha-2 code where the network's
	// infrastructure is located (the simulation geolocates a network's
	// whole address space to this country unless geo overrides it).
	Country string
}

// Clock is the shared simulation clock. Authoritative handlers consult it
// so the same server answers differently on different simulated days —
// once per exchange, from every sweep worker, hence an atomic word and
// not a lock whose reader count the workers would contend on.
type Clock struct{ day atomic.Int32 }

// NewClock returns a clock set to the given day.
func NewClock(day simtime.Day) *Clock {
	c := &Clock{}
	c.Set(day)
	return c
}

// Now returns the current simulation day.
func (c *Clock) Now() simtime.Day { return simtime.Day(c.day.Load()) }

// Set moves the clock to day.
func (c *Clock) Set(day simtime.Day) { c.day.Store(int32(day)) }

// Advance moves the clock forward n days and returns the new day.
func (c *Clock) Advance(n int) simtime.Day { return simtime.Day(c.day.Add(int32(n))) }

// allocation is one prefix. lo, hi and asn never change once the
// allocation is published; next is guarded by Internet.mu.
type allocation struct {
	lo, hi uint32 // inclusive address range
	asn    ASN
	next   uint32 // next unassigned address within the range
}

// Internet is the address plan: AS registry plus disjoint prefix
// allocations with longest-prefix (here: unique-range) origin lookup.
type Internet struct {
	Clock *Clock

	mu   sync.RWMutex
	ases map[ASN]*AS
	// allocs is sorted by lo and read-mostly (OriginAS runs per routed
	// exchange, allocation only while the world is built): readers load
	// the slice without the lock; a writer, under mu, publishes a longer
	// copy and never touches a published one.
	allocs atomic.Pointer[[]*allocation]
	// nextBlock is the next free /16 block number in 10.x or beyond.
	nextBlock uint32
}

// NewInternet returns an empty address plan with the clock at day.
func NewInternet(day simtime.Day) *Internet {
	in := &Internet{
		Clock: NewClock(day),
		ases:  make(map[ASN]*AS),
		// Start allocations at 11.0.0.0 to keep clear of loopback,
		// RFC1918 10/8 and the well-known test nets.
		nextBlock: 11 << 8, // block number is the upper 16 bits
	}
	in.allocs.Store(new([]*allocation))
	return in
}

// RegisterAS adds an AS to the registry. Registering the same number twice
// is an error (provider catalogs are static in a run).
func (in *Internet) RegisterAS(as AS) (*AS, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, dup := in.ases[as.Number]; dup {
		return nil, fmt.Errorf("netsim: AS%d already registered", as.Number)
	}
	cp := as
	in.ases[as.Number] = &cp
	return &cp, nil
}

// MustRegisterAS is RegisterAS for static catalogs; it panics on error.
func (in *Internet) MustRegisterAS(as AS) *AS {
	a, err := in.RegisterAS(as)
	if err != nil {
		panic(err)
	}
	return a
}

// Lookup returns the AS record for an ASN.
func (in *Internet) Lookup(asn ASN) (*AS, bool) {
	in.mu.RLock()
	defer in.mu.RUnlock()
	as, ok := in.ases[asn]
	return as, ok
}

// ASes returns all registered ASes sorted by number.
func (in *Internet) ASes() []*AS {
	in.mu.RLock()
	defer in.mu.RUnlock()
	out := make([]*AS, 0, len(in.ases))
	for _, as := range in.ases {
		out = append(out, as)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Number < out[j].Number })
	return out
}

func addrToU32(a netip.Addr) uint32 {
	b := a.As4()
	return binary.BigEndian.Uint32(b[:])
}

func u32ToAddr(v uint32) netip.Addr {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], v)
	return netip.AddrFrom4(b)
}

// AllocatePrefix carves a fresh /16 for the AS and returns it. Prefixes
// are disjoint by construction.
func (in *Internet) AllocatePrefix(asn ASN) (netip.Prefix, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	if _, ok := in.ases[asn]; !ok {
		return netip.Prefix{}, fmt.Errorf("netsim: unknown AS%d", asn)
	}
	lo := in.nextBlock << 16
	in.nextBlock++
	if in.nextBlock >= 0xE000 { // stay below 224.0.0.0 multicast
		return netip.Prefix{}, fmt.Errorf("netsim: address space exhausted")
	}
	// Allocations are appended in increasing order, so the slice stays
	// sorted without re-sorting.
	old := *in.allocs.Load()
	allocs := append(old[:len(old):len(old)], &allocation{lo: lo, hi: lo | 0xFFFF, asn: asn, next: lo + 1})
	in.allocs.Store(&allocs)
	return netip.PrefixFrom(u32ToAddr(lo), 16), nil
}

// NextAddr assigns the next unused address from the AS's most recent
// prefix, allocating a new prefix when the current one fills up.
func (in *Internet) NextAddr(asn ASN) (netip.Addr, error) {
	in.mu.Lock()
	var last *allocation
	allocs := *in.allocs.Load()
	for i := len(allocs) - 1; i >= 0; i-- {
		if allocs[i].asn == asn {
			last = allocs[i]
			break
		}
	}
	if last != nil && last.next < last.hi {
		addr := u32ToAddr(last.next)
		last.next++
		in.mu.Unlock()
		return addr, nil
	}
	in.mu.Unlock()
	if _, err := in.AllocatePrefix(asn); err != nil {
		return netip.Addr{}, err
	}
	return in.NextAddr(asn)
}

// OriginAS returns the AS originating addr, the simulation's BGP table
// lookup. ok is false for unallocated space.
func (in *Internet) OriginAS(addr netip.Addr) (ASN, bool) {
	if !addr.Is4() {
		return 0, false
	}
	v := addrToU32(addr)
	allocs := *in.allocs.Load()
	i := sort.Search(len(allocs), func(i int) bool { return allocs[i].hi >= v })
	if i < len(allocs) && allocs[i].lo <= v && v <= allocs[i].hi {
		return allocs[i].asn, true
	}
	return 0, false
}

// OriginCountry returns the registration country of the AS originating
// addr ("" if unallocated). Geolocation proper lives in internal/geo; this
// is the coarse AS-registry view.
func (in *Internet) OriginCountry(addr netip.Addr) string {
	asn, ok := in.OriginAS(addr)
	if !ok {
		return ""
	}
	in.mu.RLock()
	defer in.mu.RUnlock()
	if as, ok := in.ases[asn]; ok {
		return as.Country
	}
	return ""
}

// Allocations returns every (prefix, ASN) pair, for building geolocation
// snapshots. Ranges are reported as /16 prefixes in allocation order.
func (in *Internet) Allocations() []PrefixASN {
	allocs := *in.allocs.Load()
	out := make([]PrefixASN, len(allocs))
	for i, a := range allocs {
		out[i] = PrefixASN{Prefix: netip.PrefixFrom(u32ToAddr(a.lo), 16), ASN: a.asn}
	}
	return out
}

// PrefixASN pairs an allocated prefix with its origin AS.
type PrefixASN struct {
	Prefix netip.Prefix
	ASN    ASN
}
