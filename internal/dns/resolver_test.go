package dns

import (
	"context"
	"net/netip"
	"slices"
	"testing"
)

// takeDown unbinds addr from net, so every exchange with it fails as an
// unanswered one does, and returns the function that binds its handler
// back.
func takeDown(net *MemNet, addr netip.Addr) (restore func()) {
	h, _ := net.routes.get(addr)
	net.Bind(addr, nil)
	return func() { net.Bind(addr, h) }
}

// buildTestInternet wires a tiny three-level hierarchy into a MemNet:
// root → ru/com TLD servers → two authoritative providers, with a .ru
// domain whose name server lives under .com (out-of-bailiwick, glueless).
func buildTestInternet(t testing.TB) (*MemNet, []netip.Addr) {
	t.Helper()
	net := NewMemNet()
	rootAddr := mustAddr("198.41.0.4")
	ruTLD := mustAddr("193.232.128.6")
	comTLD := mustAddr("192.5.6.30")
	regRu := mustAddr("194.58.116.30")  // authoritative for reg.ru + customers
	hostCom := mustAddr("172.64.32.99") // authoritative for hosting.com + customers

	serve := func(build func(q Question, resp *Message)) Handler {
		return HandlerFunc(func(q *Message, _ netip.Addr) *Message {
			resp := q.Reply()
			build(q.Questions[0], resp)
			return resp
		})
	}

	// Root: delegates ru. and com.
	net.Bind(rootAddr, serve(func(q Question, resp *Message) {
		switch {
		case IsSubdomain(q.Name, "ru."):
			resp.Authority = []RR{NewNS("ru.", 3600, "a.dns.ripn.net.")}
			resp.Additional = []RR{NewA("a.dns.ripn.net.", 3600, ruTLD)}
		case IsSubdomain(q.Name, "com."):
			resp.Authority = []RR{NewNS("com.", 3600, "a.gtld-servers.net.")}
			resp.Additional = []RR{NewA("a.gtld-servers.net.", 3600, comTLD)}
		default:
			resp.Authoritative = true
			resp.RCode = RCodeNXDomain
		}
	}))

	// .ru TLD: delegates example.ru (in-bailiwick NS, glued) and
	// foreign.ru (NS under .com, glueless).
	net.Bind(ruTLD, serve(func(q Question, resp *Message) {
		switch {
		case IsSubdomain(q.Name, "example.ru."):
			resp.Authority = []RR{NewNS("example.ru.", 3600, "ns1.reg.ru.")}
			resp.Additional = []RR{NewA("ns1.reg.ru.", 3600, regRu)}
		case IsSubdomain(q.Name, "foreign.ru."):
			resp.Authority = []RR{NewNS("foreign.ru.", 3600, "ns1.hosting.com.")}
		case IsSubdomain(q.Name, "reg.ru."):
			resp.Authority = []RR{NewNS("reg.ru.", 3600, "ns1.reg.ru.")}
			resp.Additional = []RR{NewA("ns1.reg.ru.", 3600, regRu)}
		case q.Name == "ru." && q.Type == TypeSOA:
			resp.Authoritative = true
			resp.Answers = []RR{NewSOA("ru.", "a.dns.ripn.net.", "hostmaster.ripn.net.", 1)}
		default:
			resp.Authoritative = true
			resp.RCode = RCodeNXDomain
			resp.Authority = []RR{NewSOA("ru.", "a.dns.ripn.net.", "hostmaster.ripn.net.", 1)}
		}
	}))

	// .com TLD: delegates hosting.com.
	net.Bind(comTLD, serve(func(q Question, resp *Message) {
		if IsSubdomain(q.Name, "hosting.com.") {
			resp.Authority = []RR{NewNS("hosting.com.", 3600, "ns1.hosting.com.")}
			resp.Additional = []RR{NewA("ns1.hosting.com.", 3600, hostCom)}
			return
		}
		resp.Authoritative = true
		resp.RCode = RCodeNXDomain
	}))

	// reg.ru authoritative: example.ru apex + its own NS names.
	net.Bind(regRu, serve(func(q Question, resp *Message) {
		resp.Authoritative = true
		switch {
		case q.Name == "example.ru." && q.Type == TypeA:
			resp.Answers = []RR{NewA("example.ru.", 300, mustAddr("194.58.117.5"))}
		case q.Name == "example.ru." && q.Type == TypeNS:
			resp.Answers = []RR{NewNS("example.ru.", 300, "ns1.reg.ru.")}
		case q.Name == "www.example.ru." && q.Type == TypeA:
			// An alias alone: the resolver does not follow it.
			resp.Answers = []RR{rawRR("www.example.ru.", typeCNAME, 300, wireName("example.ru."))}
		case q.Name == "ns1.reg.ru." && q.Type == TypeA:
			resp.Answers = []RR{NewA("ns1.reg.ru.", 300, regRu)}
		case q.Name == "empty.example.ru.":
			// authoritative NODATA
		default:
			resp.RCode = RCodeNXDomain
		}
	}))

	// hosting.com authoritative: foreign.ru apex + ns1.hosting.com.
	net.Bind(hostCom, serve(func(q Question, resp *Message) {
		resp.Authoritative = true
		switch {
		case q.Name == "foreign.ru." && q.Type == TypeA:
			resp.Answers = []RR{NewA("foreign.ru.", 300, mustAddr("172.64.33.1"))}
		case q.Name == "foreign.ru." && q.Type == TypeNS:
			resp.Answers = []RR{NewNS("foreign.ru.", 300, "ns1.hosting.com.")}
		case q.Name == "ns1.hosting.com." && q.Type == TypeA:
			resp.Answers = []RR{NewA("ns1.hosting.com.", 300, hostCom)}
		default:
			resp.RCode = RCodeNXDomain
		}
	}))

	return net, []netip.Addr{rootAddr}
}

func TestIterativeResolution(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	ctx := context.Background()

	addrs, err := r.LookupA(ctx, "example.ru.", nil, nil)
	if err != nil {
		t.Fatalf("LookupA(example.ru.): %v", err)
	}
	if len(addrs) != 1 || addrs[0] != mustAddr("194.58.117.5") {
		t.Fatalf("LookupA(example.ru.) = %v", addrs)
	}

	hosts, err := r.LookupNS(ctx, "example.ru.", nil, nil)
	if err != nil {
		t.Fatalf("LookupNS: %v", err)
	}
	if len(hosts) != 1 || hosts[0] != "ns1.reg.ru." {
		t.Fatalf("LookupNS = %v", hosts)
	}
}

func TestGluelessOutOfBailiwickResolution(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	addrs, err := r.LookupA(context.Background(), "foreign.ru.", nil, nil)
	if err != nil {
		t.Fatalf("LookupA(foreign.ru.): %v", err)
	}
	if len(addrs) != 1 || addrs[0] != mustAddr("172.64.33.1") {
		t.Fatalf("LookupA(foreign.ru.) = %v", addrs)
	}
}

func TestNXDomainAndNodata(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	ctx := context.Background()
	res, err := r.Resolve(ctx, "nosuch.example.ru.", TypeA)
	if err != nil {
		t.Fatalf("Resolve NXDOMAIN: %v", err)
	}
	if res.RCode != RCodeNXDomain || len(res.Answers) != 0 {
		t.Fatalf("want NXDOMAIN, got %v %v", res.RCode, res.Answers)
	}
	res, err = r.Resolve(ctx, "empty.example.ru.", TypeA)
	if err != nil {
		t.Fatalf("Resolve NODATA: %v", err)
	}
	if res.RCode != RCodeNoError || len(res.Answers) != 0 {
		t.Fatalf("want NODATA, got %v %v", res.RCode, res.Answers)
	}
	// An A query answered only by a CNAME: no answers, and the alias is
	// not chased with a second query.
	regRu := mustAddr("194.58.116.30")
	exchanges := 0
	net.SetTap(func(server netip.Addr, _ *Message) {
		if server == regRu {
			exchanges++
		}
	})
	res, err = r.Resolve(ctx, "www.example.ru.", TypeA)
	if err != nil {
		t.Fatalf("Resolve alias: %v", err)
	}
	if res.RCode != RCodeNoError || len(res.Answers) != 0 || exchanges != 1 {
		t.Fatalf("alias: got %v %v after %d exchanges with the authoritative server, want NOERROR, no answers, 1 exchange", res.RCode, res.Answers, exchanges)
	}
}

func TestDelegationCacheSpeedsSecondQuery(t *testing.T) {
	net, roots := buildTestInternet(t)
	var queries int
	net.SetTap(func(netip.Addr, *Message) { queries++ })
	r := NewResolver(net, roots)
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	first := queries
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	second := queries - first
	if second >= first {
		t.Errorf("cache ineffective: first=%d second=%d queries", first, second)
	}
	cs := r.CacheStats()
	if cs.Zones == 0 || cs.Hosts == 0 {
		t.Errorf("caches empty after resolution: zones=%d hosts=%d", cs.Zones, cs.Hosts)
	}
	if cs.ZoneHits == 0 || cs.Misses() == 0 {
		t.Errorf("lookup counters not moving: %+v", cs)
	}
	r.FlushCache()
	cs = r.CacheStats()
	if cs.Zones != 0 || cs.Hosts != 0 {
		t.Error("FlushCache left entries behind")
	}
}

func TestUnreachableServerFailsOver(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	r.Client.Retries = 0
	ctx := context.Background()
	// Prime the cache, then take the authoritative down; resolution must
	// fall back to the root and ultimately fail cleanly (not hang).
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	restore := takeDown(net, mustAddr("194.58.116.30"))
	r.FlushCache()
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err == nil {
		t.Fatal("resolution succeeded with authoritative down")
	}
	restore()
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestLookupHostNegativeCache(t *testing.T) {
	net, roots := buildTestInternet(t)
	comTLD := mustAddr("192.5.6.30")
	hostCom := mustAddr("172.64.32.99")
	var queries int
	net.SetTap(func(netip.Addr, *Message) { queries++ })
	r := NewResolver(net, roots)
	r.Client.Retries = 1
	ctx := context.Background()

	// The whole .com branch is down, so ns1.hosting.com cannot be
	// resolved and no glue for it is ever learned.
	restore := takeDown(net, comTLD)
	if _, err := r.LookupHost(ctx, "ns1.hosting.com.", 0); err == nil {
		t.Fatal("LookupHost succeeded with authoritative down")
	}
	first := queries
	if first == 0 {
		t.Fatal("first lookup sent no queries")
	}

	// Second lookup must be answered from the negative cache: zero
	// queries on the wire.
	if _, err := r.LookupHost(ctx, "ns1.hosting.com.", 0); err == nil {
		t.Fatal("negative-cached lookup succeeded")
	}
	if delta := queries - first; delta != 0 {
		t.Errorf("negative-cached LookupHost sent %d queries, want 0", delta)
	}

	// A domain delegated to the dead host fails fast too: only the
	// referral chase (root + ru TLD), no renewed expedition into .com.
	before := queries
	if _, err := r.LookupA(ctx, "foreign.ru.", nil, nil); err == nil {
		t.Fatal("foreign.ru resolved through a dead name server")
	}
	if delta := queries - before; delta > 2 {
		t.Errorf("lame-delegation resolution sent %d queries, want ≤ 2 (referrals only)", delta)
	}

	// FlushCache forgets the negative entry, so recovery is observable.
	restore()
	if _, err := r.LookupHost(ctx, "ns1.hosting.com.", 0); err == nil {
		t.Fatal("stale negative entry should still answer until flushed")
	}
	r.FlushCache()
	addrs, err := r.LookupHost(ctx, "ns1.hosting.com.", 0)
	if err != nil {
		t.Fatalf("post-flush lookup: %v", err)
	}
	if len(addrs) != 1 || addrs[0] != hostCom {
		t.Fatalf("post-flush addrs = %v", addrs)
	}
}

func TestLookupHostCancellationDoesNotPoisonCache(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.LookupHost(cancelled, "ns1.reg.ru.", 0); err == nil {
		t.Fatal("cancelled lookup succeeded")
	}
	// The failure above was the caller's, not the host's: a fresh context
	// must resolve normally.
	addrs, err := r.LookupHost(context.Background(), "ns1.reg.ru.", 0)
	if err != nil {
		t.Fatalf("lookup after cancellation: %v", err)
	}
	if len(addrs) != 1 {
		t.Fatalf("addrs = %v", addrs)
	}
}

// twoServerRoot binds two root servers that answer every A query
// authoritatively, returning the MemNet and the root addresses.
func twoServerRoot(build func(server netip.Addr) Handler) (*MemNet, []netip.Addr) {
	net := NewMemNet()
	roots := []netip.Addr{mustAddr("198.41.0.4"), mustAddr("199.9.14.201")}
	for _, a := range roots {
		net.Bind(a, build(a))
	}
	return net, roots
}

func TestQueryAnyRotatesAcrossServers(t *testing.T) {
	answer := func(server netip.Addr) Handler {
		return HandlerFunc(func(q *Message, _ netip.Addr) *Message {
			resp := q.Reply()
			resp.Authoritative = true
			resp.Answers = []RR{NewA(q.Questions[0].Name, 300, server)}
			return resp
		})
	}
	net, roots := twoServerRoot(answer)
	hit := map[netip.Addr]int{}
	net.SetTap(func(server netip.Addr, _ *Message) { hit[server]++ })
	r := NewResolver(net, roots)
	ctx := context.Background()
	for i := 0; i < 16; i++ {
		if _, err := r.LookupA(ctx, Canonical(string(rune('a'+i))+".ru."), nil, nil); err != nil {
			t.Fatal(err)
		}
	}
	// The per-name rotation offset must spread first attempts over both
	// servers rather than hammering servers[0].
	if hit[roots[0]] == 0 || hit[roots[1]] == 0 {
		t.Errorf("rotation left a server cold: %v", hit)
	}
}

func TestMemNetNoRoute(t *testing.T) {
	net := NewMemNet()
	c := NewClient(net)
	c.Retries = 0
	_, err := c.Query(context.Background(), mustAddr("10.9.9.9"), "x.ru.", TypeA)
	if err == nil {
		t.Fatal("query to unbound address succeeded")
	}
}

func TestClientContextCancellation(t *testing.T) {
	net := NewMemNet()
	c := NewClient(net)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := c.Query(ctx, mustAddr("10.0.0.1"), "x.ru.", TypeA); err == nil {
		t.Fatal("cancelled query succeeded")
	}
}

func BenchmarkResolveWithCache(b *testing.B) {
	net, roots := buildTestInternet(b)
	r := NewResolver(net, roots)
	ctx := context.Background()
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolveNoCache(b *testing.B) {
	net, roots := buildTestInternet(b)
	r := NewResolver(net, roots)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.FlushCache()
		if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// TestCutSendsWhatTheSharedCacheSent measures names the way a sweep
// worker does — each name once a day: NS, then A and MX, then the NS
// hosts' addresses — once through the shared cache alone and once with a
// Cut per name. The wire must carry the same (server, name, type)
// sequence, down to the restarts from the roots when a name's servers
// stop answering, and the shared cache must end without the measured
// names' own cuts.
func TestCutSendsWhatTheSharedCacheSent(t *testing.T) {
	type exchange struct {
		server netip.Addr
		name   string
		qtype  Type
	}
	names := []string{"example.ru.", "foreign.ru.", "reg.ru."}
	// run returns what the wire carried and which measured names' cuts the
	// shared cache held at the end of the first day.
	run := func(withCut bool) ([]exchange, []string) {
		net, roots := buildTestInternet(t)
		var sent []exchange
		net.SetTap(func(server netip.Addr, q *Message) {
			sent = append(sent, exchange{server, q.Questions[0].Name, q.Questions[0].Type})
		})
		r := NewResolver(net, roots)
		r.Client.Retries = 0
		ctx := context.Background()
		var cut *Cut
		if withCut {
			cut = new(Cut)
		}
		measure := func(name string) {
			if cut != nil {
				cut.Reset()
			}
			hosts, err := r.LookupNS(ctx, name, cut, nil)
			if err != nil {
				return
			}
			r.LookupA(ctx, name, cut, nil)
			r.LookupMX(ctx, name, cut, nil)
			for _, h := range hosts {
				r.LookupHost(ctx, h, 0)
			}
		}
		for _, name := range names {
			measure(name)
		}
		var cached []string
		for _, name := range names {
			if _, ok := r.cache.zones.get(name); ok {
				cached = append(cached, name)
			}
		}
		// The next day, the cut's servers fall silent between the NS and
		// the A lookup: the A lookup restarts from the roots, as it did
		// when the cut was the shared cache's to drop.
		r.FlushCache()
		if cut != nil {
			cut.Reset()
		}
		if _, err := r.LookupNS(ctx, "example.ru.", cut, nil); err != nil {
			t.Fatal(err)
		}
		takeDown(net, mustAddr("194.58.116.30"))
		if _, err := r.LookupA(ctx, "example.ru.", cut, nil); err == nil {
			t.Fatal("LookupA succeeded with the authoritative server down")
		}
		return sent, cached
	}
	shared, sharedCached := run(false)
	withCut, cutCached := run(true)
	if !slices.Equal(shared, withCut) {
		t.Fatalf("with a Cut the wire carried %d exchanges, %v\nthe shared cache's %d: %v", len(withCut), withCut, len(shared), shared)
	}
	if !slices.Equal(sharedCached, names) || len(cutCached) != 0 {
		t.Errorf("the shared cache held the cuts of %v through the shared-cache path and %v with a Cut, want %v and none", sharedCached, cutCached, names)
	}
}
