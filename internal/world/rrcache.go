package world

import "whereru/internal/dns"

// Authoritative state is O(profiles + providers). Record sets that do
// not depend on the queried domain — root and provider referrals — are
// built once here; of the answers that do (a domain's delegation, its NS,
// A and MX sets) only the payloads are: every domain on a DNS profile
// shares one NS host set, every domain on a hosting provider one address
// pool. The handlers assemble those answers while the query is served —
// owner name from the question, payloads from here — in record room the
// reply borrows from its request (dns.Message.Records), so nothing is
// kept per domain. Everything here is a pure function of immutable world
// state, never of the simulation clock, built before the first query and
// read without locks.

// nsSet is a DNS profile's name-server host set, each host with its NS
// payload and its glue address boxed once, and the providers serving it.
type nsSet struct {
	hosts   []string
	ns      []dns.RData // NSData{hosts[i]}
	glue    []dns.RData // AData{hosts[i]'s address}
	servers []*Provider
}

// refSet is a prebuilt referral: authority (NS) and additional (glue).
type refSet struct {
	auth []dns.RR
	addl []dns.RR
}

// rrCache holds the handlers' shared record state. Profile-keyed state
// is indexed by profile number, as the table's epochs carry it.
type rrCache struct {
	nsSets      []nsSet           // DNS profile -> host set
	hostSets    [][]*Provider     // hosting profile -> providers with a pool
	rootRef     map[string]refSet // tld label -> root referral
	providerRef map[string]refSet // provider zone -> delegation
	rootNXSOA   []dns.RR          // root NXDOMAIN authority
}

// buildRRCache precomputes the profile- and provider-keyed sets; called
// from buildServing after providers and TLD addresses are final.
func (w *World) buildRRCache() {
	c := &rrCache{
		nsSets:      make([]nsSet, len(dnsKeys)),
		hostSets:    make([][]*Provider, len(hostKeys)),
		rootRef:     make(map[string]refSet, len(w.tldAddrs)),
		providerRef: make(map[string]refSet, len(w.providerZones)),
		rootNXSOA:   []dns.RR{dns.NewSOA(".", "a.root-servers.net.", "nstld.verisign-grs.com.", 1)},
	}
	for num, profile := range dnsKeys {
		set := &c.nsSets[num]
		set.hosts, _ = w.nsSetFor(profile)
		for _, k := range dnsProfiles[profile] {
			p := w.providers[k]
			set.servers = append(set.servers, p)
			for i, h := range p.NSNames {
				set.ns = append(set.ns, dns.NSData{Host: h})
				set.glue = append(set.glue, dns.AData{Addr: p.NSAddrs[i]})
			}
		}
	}
	for num, profile := range hostKeys {
		for _, k := range hostProfiles[profile] {
			if p := w.providers[k]; p != nil && len(p.HostPool) > 0 {
				c.hostSets[num] = append(c.hostSets[num], p)
			}
		}
	}
	for _, p := range w.providers {
		p.hostData = make([]dns.RData, len(p.HostPool))
		for i, a := range p.HostPool {
			p.hostData[i] = dns.AData{Addr: a}
		}
		if p.MailHost != "" {
			p.mxData = dns.MXData{Preference: 10, Host: p.MailHost}
		}
	}
	for tld, addrs := range w.tldAddrs {
		zone := tld + "."
		var set refSet
		for i, a := range addrs {
			host := string(rune('a'+i)) + ".tld-servers." + zone
			set.auth = append(set.auth, dns.NewNS(zone, 172800, host))
			set.addl = append(set.addl, dns.NewA(host, 172800, a))
		}
		c.rootRef[tld] = set
	}
	for zone, p := range w.providerZones {
		c.providerRef[zone] = buildProviderReferral(zone, p)
	}
	w.rr = c
}

// buildProviderReferral is the TLD's delegation of a provider zone: the
// provider's in-zone NS names with their glue.
func buildProviderReferral(zone string, p *Provider) refSet {
	var set refSet
	for i, h := range p.NSNames {
		if !dns.IsSubdomain(h, zone) {
			continue
		}
		set.auth = append(set.auth, dns.NewNS(zone, 172800, h))
		set.addl = append(set.addl, dns.NewA(h, 172800, p.NSAddrs[i]))
	}
	if len(set.auth) == 0 {
		// NS names under someone else's zone (e.g. googlecloud2 sharing
		// googledomains.com): delegate with all of the provider's names.
		for i, h := range p.NSNames {
			set.auth = append(set.auth, dns.NewNS(zone, 172800, h))
			set.addl = append(set.addl, dns.NewA(h, 172800, p.NSAddrs[i]))
		}
	}
	return set
}

// inRR is one class-IN record of a per-query answer.
func inRR(name string, t dns.Type, ttl uint32, data dns.RData) dns.RR {
	return dns.RR{Name: name, Type: t, Class: dns.ClassIN, TTL: ttl, Data: data}
}

// appendNS appends the set's NS records with domain as their owner.
func (s *nsSet) appendNS(rrs []dns.RR, domain string) []dns.RR {
	for _, d := range s.ns {
		rrs = append(rrs, inRR(domain, dns.TypeNS, 3600, d))
	}
	return rrs
}

// refer makes resp the TLD zone's delegation of a registered domain to
// the set: its NS records plus glue for the in-bailiwick hosts.
func (s *nsSet) refer(resp *dns.Message, domain, zone string) {
	rrs := s.appendNS(resp.Records(2*len(s.hosts)), domain)
	n := len(rrs)
	for i, h := range s.hosts {
		if dns.IsSubdomain(h, zone) {
			rrs = append(rrs, inRR(h, dns.TypeA, 3600, s.glue[i]))
		}
	}
	resp.Authority, resp.Additional = rrs[:n:n], rrs[n:]
}
