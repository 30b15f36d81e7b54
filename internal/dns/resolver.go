package dns

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
)

// Resolver performs iterative resolution from the root, the way a
// measurement platform does: no recursion is requested from servers;
// referrals are followed, glue is used when present, and out-of-bailiwick
// name-server names are resolved with bounded sub-queries.
//
// The resolver's infrastructure state — delegation cache, host cache
// (positive and negative), and the singleflight table coalescing
// concurrent misses — lives in an InfraCache that every goroutine using
// the resolver shares. A measured name's own zone cut is not
// infrastructure: the caller keeps it in a Cut. Caches must be flushed
// between measurement days, since the simulated world changes under the
// resolver (FlushCache).
type Resolver struct {
	Client *Client
	// Roots are the root name-server addresses (hints).
	Roots []netip.Addr

	cache *InfraCache
}

// maxSteps bounds referral-following per query.
const maxSteps = 30

// NewResolver builds a resolver over the transport with the given root
// hints and a private infrastructure cache.
func NewResolver(t Transport, roots []netip.Addr) *Resolver {
	return &Resolver{
		Client: NewClient(t),
		Roots:  roots,
		cache:  NewInfraCache(),
	}
}

// FlushCache clears all caches (including negative entries). Call when
// the simulated date advances.
func (r *Resolver) FlushCache() { r.cache.Flush() }

// CacheStats reports cache sizes and cumulative hit/miss/coalesced
// counters (for the ablation benchmarks, sweep stats, and /metrics).
func (r *Resolver) CacheStats() CacheStats { return r.cache.Stats() }

// Cut is one name's own zone cut, held by the caller of its lookups
// instead of the shared InfraCache: the cut is read only by the next
// lookups of that same name (a measurement's NS, then A and MX), so
// sharing it would cost a copy and a locked write per name and save
// nobody a referral. A lookup given a Cut keeps a referral to the
// looked-up name itself here, and a later lookup of that name starts
// from it; every other cut still goes to the InfraCache. The zero value
// is empty; Reset empties it for the next name.
type Cut struct {
	zone  string
	n     int
	addrs [8]netip.Addr
}

// Reset empties the cut.
func (c *Cut) Reset() { c.zone, c.n = "", 0 }

// Result is the outcome of an iterative resolution.
type Result struct {
	RCode RCode
	// Answers are the answer records of the query's type; an answer of
	// any other type (a CNAME, say) is not followed and leaves it empty.
	Answers []RR
	// Zone is the deepest zone cut that answered.
	Zone string
}

// Resolution errors.
var (
	ErrResolutionFailed = errors.New("dns: resolution failed")
	ErrLameDelegation   = errors.New("dns: lame delegation")
)

// Resolve iteratively resolves (name, qtype) and returns the final answer.
// NXDOMAIN and NODATA are returned as Results with empty Answers, not errors;
// errors mean the resolution process itself failed (no servers reachable,
// lame delegations, loops). The Result is the caller's own: nothing in it
// aliases pooled message storage.
func (r *Resolver) Resolve(ctx context.Context, name string, qtype Type) (*Result, error) {
	res, err := r.resolve(ctx, Canonical(name), qtype, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// answerScratch is the on-stack room the Lookup helpers give resolve for
// the answer records they extract from and then drop.
type answerScratch [8]RR

// resolve is Resolve returning by value: it walks referrals from name's
// own cut when cut holds it, else from the deepest cached cut, and the
// answers are appended to scratch[:0] (and spill to the heap only past
// its capacity), so a caller that extracts what it needs from a stack
// scratch allocates nothing here. Every response on the way is released
// as soon as what outlives it (the matching records, the child zone,
// glue addresses) is copied out.
func (r *Resolver) resolve(ctx context.Context, name string, qtype Type, depth int, cut *Cut, scratch []RR) (Result, error) {
	if depth > 6 {
		return Result{}, fmt.Errorf("%w: glue-chase depth exceeded for %s", ErrResolutionFailed, name)
	}
	var servers []netip.Addr
	var zone string
	if cut != nil && cut.zone == name {
		r.cache.zoneHits.Add(1) // a walk that starts from a known cut, as deepestCut counts it
		servers, zone = cut.addrs[:cut.n], cut.zone
	} else {
		servers, zone = r.cache.deepestCut(name, r.Roots)
	}
	var lastErr error
	for step := 0; step < maxSteps; step++ {
		if len(servers) == 0 {
			return Result{}, fmt.Errorf("%w: no servers for %s at zone %s", ErrResolutionFailed, name, zone)
		}
		resp, srvErr := r.queryAny(ctx, servers, name, qtype)
		if srvErr != nil {
			lastErr = srvErr
			// All servers for this cut failed; if we started from cache,
			// drop the entry and restart from the root once.
			if zone != "." {
				if cut != nil && zone == cut.zone {
					cut.Reset()
				} else {
					r.cache.dropZone(zone)
				}
				servers, zone = r.Roots, "."
				continue
			}
			return Result{}, fmt.Errorf("%w: querying %s: %v", ErrResolutionFailed, name, lastErr)
		}
		res := Result{RCode: resp.RCode, Answers: scratch[:0], Zone: zone}
		switch {
		case resp.RCode == RCodeNXDomain:
			resp.Release()
			return res, nil
		case resp.RCode != RCodeNoError:
			resp.Release()
			return Result{}, fmt.Errorf("%w: %s from zone %s for %s", ErrResolutionFailed, res.RCode, zone, name)
		case len(resp.Answers) > 0:
			for _, rr := range resp.Answers {
				if rr.Type == qtype {
					res.Answers = append(res.Answers, rr)
				}
			}
			resp.Release()
			return res, nil
		}
		next, childZone, err := r.followReferral(ctx, resp, zone, name, depth, cut)
		if err != nil {
			return Result{}, err
		}
		if next == nil { // authoritative NODATA
			return res, nil
		}
		servers, zone = next, childZone
	}
	return Result{}, fmt.Errorf("%w: referral limit exceeded for %s", ErrResolutionFailed, name)
}

// followReferral turns a response with no answers into the next zone cut:
// the child zone and its server addresses, cached on the way (glue per
// host, then the cut — in cut when the child is name itself and its
// servers fit). It returns nil servers and no error for an authoritative
// NODATA. It consumes resp: the message is released as soon as the glue
// is copied out, before any glueless host is chased.
func (r *Resolver) followReferral(ctx context.Context, resp *Message, zone, name string, depth int, cut *Cut) ([]netip.Addr, string, error) {
	childZone := ""
	for _, rr := range resp.Authority {
		if rr.Type == TypeNS {
			childZone = rr.Name
			break
		}
	}
	if childZone == "" {
		authoritative := resp.Authoritative
		resp.Release()
		if authoritative {
			return nil, "", nil
		}
		return nil, "", fmt.Errorf("%w: dead end at zone %s for %s", ErrLameDelegation, zone, name)
	}
	if childZone == zone || !IsSubdomain(childZone, zone) {
		resp.Release()
		return nil, "", fmt.Errorf("%w: referral from %s to %s", ErrLameDelegation, zone, childZone)
	}
	// Glue is gathered on the stack; the cache keeps exact-size copies,
	// and only of what it does not hold already.
	var gluedBuf [8]netip.Addr
	var gluelessBuf [4]string
	glued, glueless := gluedBuf[:0], gluelessBuf[:0]
	for _, ns := range resp.Authority {
		if ns.Type != TypeNS {
			continue
		}
		host := ns.Data.(NSData).Host
		// Collect this host's glue by scanning the additional section
		// directly — referral sets are a handful of records, so a
		// linear scan beats building a per-referral map.
		n0 := len(glued)
		for _, rr := range resp.Additional {
			if rr.Type == TypeA && rr.Name == host {
				glued = append(glued, rr.Data.(AData).Addr)
			}
		}
		if len(glued) > n0 {
			r.cache.storeHost(host, glued[n0:])
		} else {
			glueless = append(glueless, host)
		}
	}
	resp.Release()
	// Only chase glueless NS names if we have no glued ones — the
	// common case in the simulation has at least one glued server.
	var lastErr error
	if len(glued) == 0 {
		for _, host := range glueless {
			addrs, err := r.LookupHost(ctx, host, depth+1)
			if err == nil && len(addrs) > 0 {
				glued = append(glued, addrs...)
				break
			}
			lastErr = err
		}
	}
	if len(glued) == 0 {
		return nil, "", fmt.Errorf("%w: no reachable name servers for %s (last: %v)", ErrLameDelegation, childZone, lastErr)
	}
	if cut != nil && childZone == name && len(glued) <= len(cut.addrs) {
		cut.zone, cut.n = childZone, copy(cut.addrs[:], glued)
		return cut.addrs[:cut.n], childZone, nil
	}
	return r.cache.storeZone(childZone, glued), childZone, nil
}

// queryAny tries servers until one answers. The starting server is
// rotated by a name-derived offset instead of always hammering the first
// of the set — under injected loss, a fixed order concentrates retries
// (and failures) on one server while its siblings sit idle. A server that
// answers at all, whatever its RCODE, ends the search; only transport
// errors move on to the next server.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.Addr, name string, qtype Type) (*Message, error) {
	start := 0
	if n := len(servers); n > 1 {
		start = int((fnvMixString(fnvOffset64, name) ^ uint64(qtype)) % uint64(n))
	}
	var lastErr error
	for i := 0; i < len(servers); i++ {
		s := servers[(start+i)%len(servers)]
		resp, err := r.Client.Query(ctx, s, name, qtype)
		if err == nil {
			return resp, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
	}
	return nil, lastErr
}

// LookupHost resolves the A records for a host (used for name-server
// addresses), consulting the host cache — positive and negative — first.
// Failed lookups are negative-cached until FlushCache so a dead NS host
// costs one resolution per sweep, not one per delegated domain.
// Concurrent misses on the same host are coalesced: one caller leads the
// upstream resolution, the rest wait for its outcome, so a cache-miss
// storm on a popular provider issues a single query chain.
func (r *Resolver) LookupHost(ctx context.Context, host string, depth int) ([]netip.Addr, error) {
	host = Canonical(host)
	c := r.cache
	if addrs, ok, neg := c.lookupHost(host); ok {
		c.hostHits.Add(1)
		return addrs, nil
	} else if neg {
		c.hostHits.Add(1)
		return nil, fmt.Errorf("%w: host %s (negative-cached)", ErrResolutionFailed, host)
	}
	for {
		fl, lead, gen, addrs, ok, neg := c.joinOrLead(host)
		switch {
		case ok:
			c.hostHits.Add(1)
			return addrs, nil
		case neg:
			c.hostHits.Add(1)
			return nil, fmt.Errorf("%w: host %s (negative-cached)", ErrResolutionFailed, host)
		case lead:
			c.hostMisses.Add(1)
			return r.lookupHostUpstream(ctx, host, depth, fl, gen)
		}
		c.coalesced.Add(1)
		select {
		case <-fl.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if fl.err == nil {
			return fl.addrs, nil
		}
		if isContextErr(fl.err) && ctx.Err() == nil {
			// The leader's context died, not the lookup: retry with ours.
			continue
		}
		return nil, fl.err
	}
}

// lookupHostUpstream resolves host's addresses upstream and records the
// outcome in the cache and the flight.
func (r *Resolver) lookupHostUpstream(ctx context.Context, host string, depth int, fl *hostFlight, gen uint64) ([]netip.Addr, error) {
	// No stack scratch here: this call sits inside the glue-chase
	// recursion, where escape analysis would move it to the heap anyway.
	res, err := r.resolve(ctx, host, TypeA, depth, nil, nil)
	var addrs []netip.Addr
	if err == nil {
		addrs = appendAddrs(nil, res.Answers)
	}
	r.cache.completeHost(host, fl, gen, addrs, err, ctx.Err() != nil)
	if err != nil {
		return nil, err
	}
	return addrs, nil
}

// appendAddrs appends the A records' addresses to dst.
func appendAddrs(dst []netip.Addr, answers []RR) []netip.Addr {
	for _, rr := range answers {
		if rr.Type == TypeA {
			dst = append(dst, rr.Data.(AData).Addr)
		}
	}
	return dst
}

// The measurement lookups resolve one name and append what they find to
// dst, which they return (dst as given on an error): a caller whose dst
// has room allocates nothing. cut is the name's own zone cut (nil: the
// shared cache alone); pass the same Cut to every lookup of one name,
// NS first, and Reset it before the next name.

// LookupA resolves A records for name. An alias is not followed: a name
// answered only by a CNAME has no addresses.
func (r *Resolver) LookupA(ctx context.Context, name string, cut *Cut, dst []netip.Addr) ([]netip.Addr, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeA, 0, cut, scratch[:0])
	if err != nil {
		return dst, err
	}
	return appendAddrs(dst, res.Answers), nil
}

// LookupNS resolves the NS set for name and appends the server names.
func (r *Resolver) LookupNS(ctx context.Context, name string, cut *Cut, dst []string) ([]string, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeNS, 0, cut, scratch[:0])
	if err != nil {
		return dst, err
	}
	for _, rr := range res.Answers {
		dst = append(dst, rr.Data.(NSData).Host)
	}
	return dst, nil
}

// LookupMX resolves the MX set for name and appends the exchange hosts.
func (r *Resolver) LookupMX(ctx context.Context, name string, cut *Cut, dst []string) ([]string, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeMX, 0, cut, scratch[:0])
	if err != nil {
		return dst, err
	}
	for _, rr := range res.Answers {
		dst = append(dst, rr.Data.(MXData).Host)
	}
	return dst, nil
}
