package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"

	"whereru/internal/ct"
	"whereru/internal/dns"
	"whereru/internal/geo"
	"whereru/internal/idn"
	"whereru/internal/netsim"
	"whereru/internal/pki"
	"whereru/internal/registry"
	"whereru/internal/sanctions"
	"whereru/internal/scan"
	"whereru/internal/simtime"
)

// World is the fully-wired simulated ecosystem. Build constructs it; the
// measurement pipeline and analyses then observe it exclusively through
// protocol surfaces (DNS queries, CT log reads, CRL/OCSP state, scans).
type World struct {
	cfg Config

	// Internet is the address plan (ASes, prefixes, origin lookup).
	Internet *netsim.Internet
	// Topology is the AS-level routing graph (adjacency, IXP fabrics,
	// scheduled route events) layered on Internet's address plan.
	Topology *netsim.Topology
	// Mem is the in-memory DNS wire.
	Mem *dns.MemNet
	// Geo is the IP2Location-analog geolocation database.
	Geo *geo.DB
	// Registries groups the .ru and .рф registries.
	Registries *registry.Group
	// Sanctions is the OFAC/UK list (107 domains).
	Sanctions *sanctions.List
	// Certs is the ground-truth certificate corpus.
	Certs *pki.Store
	// CTLog is the public CT log (Censys's index analog reads this).
	CTLog *ct.Log
	// Scanner is the CUIDS-analog endpoint registry.
	Scanner *scan.Scanner
	// CAs is the CA catalog by organization name.
	CAs map[string]*pki.CA

	providers map[string]*Provider
	byASN     map[netsim.ASN]*Provider
	domains   map[string]*DomainRec
	names     []string // all domain names, generation order
	roots     []netip.Addr
	tldAddrs  map[string][]netip.Addr // tld label ("ru") -> server addrs
	// providerZones maps a provider's NS-name parent zone ("nic.ru.") to
	// the provider, for TLD delegation of the providers' own names.
	providerZones map[string]*Provider
	// rr is the handlers' shared record state (see rrcache.go).
	rr *rrCache
}

// Build generates the world.
func Build(cfg Config) (*World, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	w := &World{
		cfg:           cfg,
		Internet:      netsim.NewInternet(simtime.StudyStart),
		Mem:           dns.NewMemNet(),
		Geo:           geo.NewDB(),
		Sanctions:     sanctions.NewList(),
		Certs:         pki.NewStore(),
		CTLog:         ct.NewLog("whereru-log"),
		Scanner:       scan.NewScanner(),
		CAs:           pki.StandardCatalog(),
		providers:     make(map[string]*Provider),
		byASN:         make(map[netsim.ASN]*Provider),
		domains:       make(map[string]*DomainRec),
		tldAddrs:      make(map[string][]netip.Addr),
		providerZones: make(map[string]*Provider),
	}
	if err := w.buildProviders(); err != nil {
		return nil, err
	}
	if err := w.buildGeo(); err != nil {
		return nil, err
	}
	if err := w.buildDomains(); err != nil {
		return nil, err
	}
	w.buildSanctioned()
	if err := w.buildServing(); err != nil {
		return nil, err
	}
	if err := w.buildTopology(); err != nil {
		return nil, err
	}
	if err := w.buildCerts(); err != nil {
		return nil, err
	}
	return w, nil
}

// Config returns the world's configuration.
func (w *World) Config() Config { return w.cfg }

// Clock returns the shared simulation clock.
func (w *World) Clock() *netsim.Clock { return w.Internet.Clock }

// Roots returns the root name-server hint addresses.
func (w *World) Roots() []netip.Addr { return w.roots }

// NewResolver returns an iterative resolver over the in-memory wire.
func (w *World) NewResolver() *dns.Resolver {
	return dns.NewResolver(w.Mem, w.roots)
}

// NewFaultyResolver returns a resolver whose exchanges pass through a
// deterministic fault-injection layer configured with profile as the
// default for every server, plus the fault transport for installing
// per-server or per-prefix overrides (e.g. outage windows on registry
// infrastructure). The resolver's client is seeded with the same seed,
// so two runs over identical worlds observe identical faults.
func (w *World) NewFaultyResolver(seed int64, profile dns.FaultProfile) (*dns.Resolver, *dns.FaultTransport) {
	ft := dns.NewFaultTransport(w.Mem, seed, w.Clock())
	ft.SetDefault(profile)
	r := dns.NewResolver(ft, w.roots)
	r.Client = dns.NewSeededClient(ft, seed)
	return r, ft
}

// TLDServerAddrs returns the server addresses for a served TLD label
// ("ru", the .рф punycode), for targeting registry infrastructure with
// fault profiles.
func (w *World) TLDServerAddrs(tld string) []netip.Addr {
	addrs := make([]netip.Addr, len(w.tldAddrs[tld]))
	copy(addrs, w.tldAddrs[tld])
	return addrs
}

// Provider returns a provider by key.
func (w *World) Provider(key string) (*Provider, bool) {
	p, ok := w.providers[key]
	return p, ok
}

// ProviderByASN returns the provider owning an ASN.
func (w *World) ProviderByASN(asn netsim.ASN) (*Provider, bool) {
	p, ok := w.byASN[asn]
	return p, ok
}

// Domain returns the record for a canonical name.
func (w *World) Domain(name string) (*DomainRec, bool) {
	d, ok := w.domains[name]
	return d, ok
}

// NumDomains returns the number of generated domains (incl. sanctioned).
func (w *World) NumDomains() int { return len(w.names) }

func (w *World) buildProviders() error {
	for _, p := range Catalog() {
		if _, err := w.Internet.RegisterAS(netsim.AS{
			Number: p.ASN, Name: p.Key, Org: p.Org, Country: p.Country,
		}); err != nil {
			return err
		}
		// Name-server addresses.
		for range p.NSNames {
			addr, err := w.Internet.NextAddr(p.ASN)
			if err != nil {
				return err
			}
			p.NSAddrs = append(p.NSAddrs, addr)
		}
		if p.MailHost != "" {
			addr, err := w.Internet.NextAddr(p.ASN)
			if err != nil {
				return err
			}
			p.MailAddr = addr
		}
		// Shared-hosting pool.
		for i := 0; i < hostPoolSize; i++ {
			addr, err := w.Internet.NextAddr(p.ASN)
			if err != nil {
				return err
			}
			p.HostPool = append(p.HostPool, addr)
		}
		w.providers[p.Key] = p
		w.byASN[p.ASN] = p
		for _, nsName := range p.NSNames {
			zone := dns.Parent(nsName)
			w.providerZones[zone] = p
		}
	}
	// Root and TLD infrastructure live in a dedicated infra AS.
	if _, err := w.Internet.RegisterAS(netsim.AS{Number: infraASN, Name: "infra", Org: "DNS Infrastructure", Country: "US"}); err != nil {
		return err
	}
	for i := 0; i < 2; i++ {
		addr, err := w.Internet.NextAddr(infraASN)
		if err != nil {
			return err
		}
		w.roots = append(w.roots, addr)
	}
	for _, tld := range w.servedTLDs() {
		for i := 0; i < 2; i++ {
			addr, err := w.Internet.NextAddr(infraASN)
			if err != nil {
				return err
			}
			w.tldAddrs[tld] = append(w.tldAddrs[tld], addr)
		}
	}
	return nil
}

// servedTLDs collects every TLD the simulation must serve: the two
// registry TLDs plus each TLD appearing in provider NS names. The
// providers are visited in sorted key order — TLD order decides which
// infrastructure addresses each TLD is allocated, and a map walk here
// would make two Builds with the same seed disagree on server addresses.
func (w *World) servedTLDs() []string {
	keys := make([]string, 0, len(w.providers))
	for k := range w.providers {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	seen := map[string]bool{"ru": true, idn.RFTLDASCII: true}
	out := []string{"ru", idn.RFTLDASCII}
	for _, k := range keys {
		for _, n := range w.providers[k].NSNames {
			tld := dns.TLD(n)
			if !seen[tld] {
				seen[tld] = true
				out = append(out, tld)
			}
		}
	}
	return out
}

func (w *World) buildGeo() error {
	b := geo.NewBuilder()
	// Countries confusable with each hosting country, for the noise model.
	confusions := map[string][]string{
		"RU": {"UA", "KZ"}, "US": {"CA", "NL"}, "DE": {"AT", "NL"},
		"NL": {"DE", "BE"}, "SE": {"FI", "NO"}, "CZ": {"SK", "DE"},
		"EE": {"LV", "FI"}, "PL": {"DE", "CZ"}, "FR": {"BE", "DE"},
	}
	rng := rand.New(rand.NewSource(w.cfg.Seed ^ 0x6E01))
	for _, alloc := range w.Internet.Allocations() {
		as, ok := w.Internet.Lookup(alloc.ASN)
		if !ok {
			return fmt.Errorf("world: allocation for unknown AS%d", alloc.ASN)
		}
		b.Add(alloc.Prefix, as.Country)
		if w.cfg.GeoNoise > 0 {
			// Mislocate a sample of /24s inside the /16 (footnote 5:
			// country-level geolocation disagreement).
			wrong := confusions[as.Country]
			if len(wrong) == 0 {
				wrong = []string{"US"}
			}
			base := alloc.Prefix.Addr().As4()
			for sub := 0; sub < 256; sub++ {
				if rng.Float64() < w.cfg.GeoNoise {
					p := netip.PrefixFrom(netip.AddrFrom4([4]byte{base[0], base[1], byte(sub), 0}), 24)
					b.Add(p, wrong[rng.Intn(len(wrong))])
				}
			}
		}
	}
	// A single snapshot effective from well before the study window.
	return w.Geo.Snapshot(simtime.StudyStart.Add(-3650), b)
}

func (w *World) buildDomains() error {
	ru := registry.New("ru.")
	rf := registry.New(idn.RFTLDASCII + ".")
	w.Registries = registry.NewGroup(ru, rf)
	n := w.cfg.NumDomains()
	registrars := []string{"REG.RU", "RU-CENTER", "Beget", "Timeweb", "Webnames"}
	// One generator for the whole build, reseeded per domain: rand.Rand
	// keeps no state of its own between draws, so reseeding its source
	// gives exactly the stream of rand.New(rand.NewSource(domainSeed(i))).
	var src lazySource
	rng := rand.New(&src)
	for i := 0; i < n; i++ {
		src.Seed(w.domainSeed(i))
		d := w.genDomain(i, rng)
		if _, dup := w.domains[d.Name]; dup {
			continue // RFShare sampling can collide on names; skip
		}
		w.domains[d.Name] = d
		w.names = append(w.names, d.Name)
		reg, ok := w.Registries.ForName(d.Name)
		if !ok {
			return fmt.Errorf("world: no registry for %s", d.Name)
		}
		if _, err := reg.Register(d.Name, d.Created, fmt.Sprintf("ORG-%06d", i), registrars[i%len(registrars)]); err != nil {
			return fmt.Errorf("world: register %s: %w", d.Name, err)
		}
		if d.Removed != 0 {
			if err := reg.Remove(d.Name, d.Removed); err != nil {
				return err
			}
		}
	}
	return nil
}

// hostPoolIndex pins a domain's apex A records to one stable address of
// each of its hosting providers' pools (taken modulo the pool's size):
// the FNV-1a hash of its name.
func hostPoolIndex(name string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(name); i++ {
		h = (h ^ uint32(name[i])) * 16777619
	}
	return h
}

// nsSetFor returns the NS names and their glue for a DNS profile.
func (w *World) nsSetFor(dnsProfile string) (hosts []string, addrs []netip.Addr) {
	for _, key := range dnsProfiles[dnsProfile] {
		p := w.providers[key]
		if p == nil {
			continue
		}
		hosts = append(hosts, p.NSNames...)
		addrs = append(addrs, p.NSAddrs...)
	}
	return hosts, addrs
}

// ActiveDomains returns how many domains are registered on day.
func (w *World) ActiveDomains(day simtime.Day) int {
	return w.Registries.Count(day)
}

// randomActiveDomain picks a uniformly random domain active on day.
func (w *World) randomActiveDomain(rng *rand.Rand, day simtime.Day) (*DomainRec, bool) {
	for tries := 0; tries < 64; tries++ {
		d := w.domains[w.names[rng.Intn(len(w.names))]]
		if d.ActiveOn(day) {
			return d, true
		}
	}
	return nil, false
}
