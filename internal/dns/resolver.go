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
// concurrent misses — lives in an InfraCache, private by default and
// shareable across resolvers with SetCache. Caches must be flushed
// between measurement days, since the simulated world changes under the
// resolver (FlushCache).
type Resolver struct {
	Client *Client
	// Roots are the root name-server addresses (hints).
	Roots []netip.Addr
	// MaxSteps bounds referral-following per query (default 30).
	MaxSteps int
	// MaxCNAME bounds alias chains (default 8).
	MaxCNAME int
	// Trace, when set, observes every resolution step (zone cut queried,
	// server used, question, and outcome) — cmd/dnsdig's -trace output.
	Trace func(step TraceStep)

	cache *InfraCache
}

// NewResolver builds a resolver over the transport with the given root
// hints and a private infrastructure cache.
func NewResolver(t Transport, roots []netip.Addr) *Resolver {
	return &Resolver{
		Client:   NewClient(t),
		Roots:    roots,
		MaxSteps: 30,
		MaxCNAME: 8,
		cache:    NewInfraCache(),
	}
}

// Cache returns the resolver's infrastructure cache.
func (r *Resolver) Cache() *InfraCache { return r.cache }

// SetCache replaces the resolver's infrastructure cache, typically with
// one shared by several resolvers. Call before issuing queries.
func (r *Resolver) SetCache(c *InfraCache) { r.cache = c }

// FlushCache clears all caches (including negative entries). Call when
// the simulated date advances.
func (r *Resolver) FlushCache() { r.cache.Flush() }

// CacheStats reports cache sizes and cumulative hit/miss/coalesced
// counters (for the ablation benchmarks, sweep stats, and /metrics).
func (r *Resolver) CacheStats() CacheStats { return r.cache.Stats() }

// TraceStep is one hop of an iterative resolution.
type TraceStep struct {
	Zone     string
	Server   netip.Addr
	Question Question
	// Referral is the child zone when the answer was a delegation, "".
	Referral string
	// RCode is the response code received.
	RCode RCode
	// Answers is the number of answer records returned.
	Answers int
}

// Result is the outcome of an iterative resolution.
type Result struct {
	RCode   RCode
	Answers []RR
	// Chain records any CNAMEs followed, in order.
	Chain []string
	// Zone is the deepest zone cut that answered.
	Zone string
}

// Resolution errors.
var (
	ErrResolutionFailed = errors.New("dns: resolution failed")
	ErrLameDelegation   = errors.New("dns: lame delegation")
	ErrCNAMELoop        = errors.New("dns: CNAME chain too long")
)

// Resolve iteratively resolves (name, qtype) and returns the final answer.
// NXDOMAIN and NODATA are returned as Results with empty Answers, not errors;
// errors mean the resolution process itself failed (no servers reachable,
// lame delegations, loops). The Result is the caller's own: nothing in it
// aliases pooled message storage.
func (r *Resolver) Resolve(ctx context.Context, name string, qtype Type) (*Result, error) {
	res, err := r.resolve(ctx, Canonical(name), qtype, 0, nil)
	if err != nil {
		return nil, err
	}
	return &res, nil
}

// answerScratch is the on-stack room the Lookup helpers give resolve for
// the answer records they extract from and then drop.
type answerScratch [8]RR

// resolve is Resolve returning by value: the answers are appended to
// scratch[:0] (and spill to the heap only past its capacity), so a caller
// that extracts what it needs from a stack scratch allocates nothing here.
// The final response of each alias-free walk is released as soon as its
// matching records are copied out.
func (r *Resolver) resolve(ctx context.Context, name string, qtype Type, depth int, scratch []RR) (Result, error) {
	if depth > 6 {
		return Result{}, fmt.Errorf("%w: glue-chase depth exceeded for %s", ErrResolutionFailed, name)
	}
	res := Result{Zone: ".", Answers: scratch[:0]}
	qname := name
	for cnames := 0; ; cnames++ {
		if cnames > r.maxCNAME() {
			return Result{}, fmt.Errorf("%w resolving %s", ErrCNAMELoop, name)
		}
		resp, rcode, zone, err := r.resolveNoCNAME(ctx, qname, qtype, depth)
		if err != nil {
			return Result{}, err
		}
		res.RCode, res.Zone = rcode, zone
		// Split CNAMEs from final answers.
		var target string
		if resp != nil {
			for _, rr := range resp.Answers {
				if rr.Type == TypeCNAME && qtype != TypeCNAME {
					target = rr.Data.(CNAMEData).Target
				} else if rr.Type == qtype {
					res.Answers = append(res.Answers, rr)
				}
			}
			resp.Release()
		}
		if len(res.Answers) > 0 || target == "" {
			return res, nil
		}
		res.Chain = append(res.Chain, target)
		qname = target
	}
}

func (r *Resolver) maxCNAME() int {
	if r.MaxCNAME <= 0 {
		return 8
	}
	return r.MaxCNAME
}

func (r *Resolver) maxSteps() int {
	if r.MaxSteps <= 0 {
		return 30
	}
	return r.MaxSteps
}

// resolveNoCNAME walks referrals for one owner name without following
// aliases (the caller does that) and returns the response code and the
// zone that answered. The message is the answering response when it
// carries answer records — the caller's to read and Release — and nil for
// NXDOMAIN and NODATA. Every other response on the way is released here,
// once what outlives it (the child zone, glue addresses) is copied out.
func (r *Resolver) resolveNoCNAME(ctx context.Context, name string, qtype Type, depth int) (*Message, RCode, string, error) {
	servers, zone := r.cache.deepestCut(name, r.Roots)
	var lastErr error
	for step := 0; step < r.maxSteps(); step++ {
		if len(servers) == 0 {
			return nil, 0, "", fmt.Errorf("%w: no servers for %s at zone %s", ErrResolutionFailed, name, zone)
		}
		resp, usedServer, srvErr := r.queryAny(ctx, servers, name, qtype)
		if srvErr != nil {
			lastErr = srvErr
			// All servers for this cut failed; if we started from cache,
			// drop the entry and restart from the root once.
			if zone != "." {
				r.cache.dropZone(zone)
				servers, zone = r.Roots, "."
				continue
			}
			return nil, 0, "", fmt.Errorf("%w: querying %s: %v", ErrResolutionFailed, name, lastErr)
		}
		ts := TraceStep{Zone: zone, Server: usedServer, Question: Question{Name: name, Type: qtype, Class: ClassIN}, RCode: resp.RCode, Answers: len(resp.Answers)}
		switch {
		case resp.RCode == RCodeNXDomain:
			resp.Release()
			r.trace(ts)
			return nil, RCodeNXDomain, zone, nil
		case resp.RCode != RCodeNoError:
			resp.Release()
			return nil, 0, "", fmt.Errorf("%w: %s from zone %s for %s", ErrResolutionFailed, ts.RCode, zone, name)
		case len(resp.Answers) > 0:
			r.trace(ts)
			return resp, RCodeNoError, zone, nil
		}
		next, childZone, err := r.followReferral(ctx, resp, zone, name, depth, &ts)
		if err != nil {
			return nil, 0, "", err
		}
		if next == nil { // authoritative NODATA
			return nil, RCodeNoError, zone, nil
		}
		servers, zone = next, childZone
	}
	return nil, 0, "", fmt.Errorf("%w: referral limit exceeded for %s", ErrResolutionFailed, name)
}

// followReferral turns a response with no answers into the next zone cut:
// the child zone and its server addresses, cached on the way (glue per
// host, then the cut). It returns nil servers and no error for an
// authoritative NODATA. It consumes resp: the message is released as soon
// as the glue is copied out, before any glueless host is chased.
func (r *Resolver) followReferral(ctx context.Context, resp *Message, zone, name string, depth int, ts *TraceStep) ([]netip.Addr, string, error) {
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
			r.trace(*ts)
			return nil, "", nil
		}
		return nil, "", fmt.Errorf("%w: dead end at zone %s for %s", ErrLameDelegation, zone, name)
	}
	ts.Referral = childZone
	r.trace(*ts)
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
	return r.cache.storeZone(childZone, glued), childZone, nil
}

// queryAny tries servers until one answers usefully, reporting which
// did. The starting server is rotated by a name-derived offset instead
// of always hammering the first of the set — under injected loss, a
// fixed order concentrates retries (and failures) on one server while
// its siblings sit idle. SERVFAIL responses fail over to the next server
// the way real resolvers do; only if every server flaps is the SERVFAIL
// handed to the caller.
func (r *Resolver) queryAny(ctx context.Context, servers []netip.Addr, name string, qtype Type) (*Message, netip.Addr, error) {
	start := 0
	if n := len(servers); n > 1 {
		start = int((fnvMixString(fnvOffset64, name) ^ uint64(qtype)) % uint64(n))
	}
	var lastErr error
	var flapped *Message
	var flappedSrv netip.Addr
	for i := 0; i < len(servers); i++ {
		s := servers[(start+i)%len(servers)]
		resp, err := r.Client.Query(ctx, s, name, qtype)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, netip.Addr{}, ctx.Err()
			}
			continue
		}
		if resp.RCode == RCodeServFail {
			flapped, flappedSrv = resp, s
			continue
		}
		return resp, s, nil
	}
	if flapped != nil {
		return flapped, flappedSrv, nil
	}
	return nil, netip.Addr{}, lastErr
}

func (r *Resolver) trace(step TraceStep) {
	if r.Trace != nil {
		r.Trace(step)
	}
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
	res, err := r.resolve(ctx, host, TypeA, depth, nil)
	var addrs []netip.Addr
	if err == nil {
		addrs = answerAddrs(res.Answers)
	}
	r.cache.completeHost(host, fl, gen, addrs, err, ctx.Err() != nil)
	if err != nil {
		return nil, err
	}
	return addrs, nil
}

// answerAddrs extracts the A records' addresses into a slice of its own.
func answerAddrs(answers []RR) []netip.Addr {
	addrs := make([]netip.Addr, 0, len(answers))
	for _, rr := range answers {
		if rr.Type == TypeA {
			addrs = append(addrs, rr.Data.(AData).Addr)
		}
	}
	return addrs
}

// LookupA resolves A records for name, following CNAMEs.
func (r *Resolver) LookupA(ctx context.Context, name string) ([]netip.Addr, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeA, 0, scratch[:0])
	if err != nil {
		return nil, err
	}
	return answerAddrs(res.Answers), nil
}

// LookupNS resolves the NS set for name and returns the server names.
func (r *Resolver) LookupNS(ctx context.Context, name string) ([]string, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeNS, 0, scratch[:0])
	if err != nil {
		return nil, err
	}
	hosts := make([]string, 0, len(res.Answers))
	for _, rr := range res.Answers {
		hosts = append(hosts, rr.Data.(NSData).Host)
	}
	return hosts, nil
}

// LookupMX resolves the MX set for name and returns the exchange hosts
// (nil when there are none).
func (r *Resolver) LookupMX(ctx context.Context, name string) ([]string, error) {
	var scratch answerScratch
	res, err := r.resolve(ctx, Canonical(name), TypeMX, 0, scratch[:0])
	if err != nil || len(res.Answers) == 0 {
		return nil, err
	}
	hosts := make([]string, 0, len(res.Answers))
	for _, rr := range res.Answers {
		hosts = append(hosts, rr.Data.(MXData).Host)
	}
	return hosts, nil
}
