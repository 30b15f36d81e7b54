package world

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"

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
	domains   domainTable // see table.go
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

// ProviderByASN returns the provider owning an ASN.
func (w *World) ProviderByASN(asn netsim.ASN) (*Provider, bool) {
	p, ok := w.byASN[asn]
	return p, ok
}

// NumDomains returns the number of generated domains (incl. sanctioned).
func (w *World) NumDomains() int { return w.domains.Len() }

func (w *World) buildProviders() error {
	// next allocates n consecutive addresses of asn.
	next := func(asn netsim.ASN, n int) (addrs []netip.Addr, err error) {
		for len(addrs) < n && err == nil {
			var a netip.Addr
			a, err = w.Internet.NextAddr(asn)
			addrs = append(addrs, a)
		}
		return addrs, err
	}
	var err error
	for _, p := range Catalog() {
		if _, err := w.Internet.RegisterAS(netsim.AS{
			Number: p.ASN, Name: p.Key, Org: p.Org, Country: p.Country,
		}); err != nil {
			return err
		}
		// Name-server addresses, the mail host's, the shared-hosting pool.
		if p.NSAddrs, err = next(p.ASN, len(p.NSNames)); err != nil {
			return err
		}
		if p.MailHost != "" {
			mail, err := next(p.ASN, 1)
			if err != nil {
				return err
			}
			p.MailAddr = mail[0]
		}
		if p.HostPool, err = next(p.ASN, hostPoolSize); err != nil {
			return err
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
	if w.roots, err = next(infraASN, 2); err != nil {
		return err
	}
	for _, tld := range w.servedTLDs() {
		if w.tldAddrs[tld], err = next(infraASN, 2); err != nil {
			return err
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
	seen := map[string]bool{"ru": true, idn.RFTLDASCII: true}
	out := []string{"ru", idn.RFTLDASCII}
	for _, k := range sortedKeys(w.providers) {
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

// buildDomains generates every domain, then the sanctioned ones, into
// the domain table.
func (w *World) buildDomains() error {
	n := w.cfg.NumDomains()
	reg := registry.NewBuilder(n+numSanctioned, "ru.", idn.RFTLDASCII+".")
	t := &w.domains
	t.epochOff = append(make([]uint32, 0, n+numSanctioned+1), 0)
	t.sanctioned = n
	// One generator for the whole build, reseeded per domain: rand.Rand
	// keeps no state of its own between draws, so reseeding its source
	// gives exactly the stream of rand.New(rand.NewSource(domainSeed(i))).
	var src lazySource
	rng := rand.New(&src)
	var d draft
	for i := 0; i < n+numSanctioned; i++ {
		if i < n {
			src.Seed(w.domainSeed(i))
			w.genDomain(i, rng, &d)
		} else {
			sanctionedDraft(i-n, &d)
		}
		if err := reg.Add(d.Name, d.Created, d.Removed); err != nil {
			return fmt.Errorf("world: %w", err)
		}
		t.epochs = append(t.epochs, d.epochs...)
		t.epochOff = append(t.epochOff, uint32(len(t.epochs)))
	}
	t.epochs = slices.Clone(t.epochs) // without append's slack
	t.Group = reg.Build()
	w.Registries = t.Group
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
func (w *World) randomActiveDomain(rng *rand.Rand, day simtime.Day) (int, bool) {
	for tries := 0; tries < 64; tries++ {
		if d := rng.Intn(w.domains.Len()); w.domains.ActiveOn(d, day) {
			return d, true
		}
	}
	return 0, false
}
