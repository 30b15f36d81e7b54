package dns

import (
	"context"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// singleHostRoot binds one root server that authoritatively answers A
// queries for host (invoking onHostQuery first, which may block) and
// NXDOMAIN for everything else.
func singleHostRoot(host string, hostAddr netip.Addr, onHostQuery func()) (*MemNet, []netip.Addr) {
	net := NewMemNet()
	root := mustAddr("198.41.0.4")
	net.Bind(root, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		qq := q.Questions[0]
		if qq.Type == TypeA && qq.Name == host {
			if onHostQuery != nil {
				onHostQuery()
			}
			resp.Answers = []RR{NewA(host, 300, hostAddr)}
		} else {
			resp.RCode = RCodeNXDomain
		}
		return resp
	}))
	return net, []netip.Addr{root}
}

// TestLookupHostSingleflightCoalesces pins the cache-miss storm contract:
// N concurrent LookupHost calls for one uncached host issue exactly one
// upstream query chain. The schedule is controlled, not raced: the
// upstream handler blocks the leader's query on a gate, the waiters are
// started only after the leader's flight is registered (its query is on
// the wire), and the gate opens only once the coalesced counter shows
// every waiter parked on the flight.
func TestLookupHostSingleflightCoalesces(t *testing.T) {
	const host = "ns.bigprovider.ru."
	const waiters = 7
	hostAddr := mustAddr("10.1.2.3")
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	var upstream atomic.Int64
	net, roots := singleHostRoot(host, hostAddr, func() {
		upstream.Add(1)
		once.Do(func() { close(leaderIn) })
		<-release
	})
	r := NewResolver(net, roots)

	type outcome struct {
		addrs []netip.Addr
		err   error
	}
	results := make(chan outcome, waiters+1)
	lookup := func() {
		addrs, err := r.LookupHost(context.Background(), host, 0)
		results <- outcome{addrs, err}
	}
	go lookup()
	<-leaderIn
	for i := 0; i < waiters; i++ {
		go lookup()
	}
	deadline := time.Now().Add(10 * time.Second)
	for r.CacheStats().Coalesced < waiters {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never joined the flight: %+v", r.CacheStats())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)

	for i := 0; i < waiters+1; i++ {
		out := <-results
		if out.err != nil {
			t.Fatal(out.err)
		}
		if len(out.addrs) != 1 || out.addrs[0] != hostAddr {
			t.Fatalf("addrs = %v, want [%v]", out.addrs, hostAddr)
		}
	}
	if n := upstream.Load(); n != 1 {
		t.Errorf("upstream host queries = %d, want 1 (singleflight)", n)
	}
	cs := r.CacheStats()
	if cs.HostMisses != 1 || cs.Coalesced != waiters {
		t.Errorf("counters = %+v, want 1 host miss and %d coalesced", cs, waiters)
	}
}

// TestSharedCacheNegativeEntrySuppressesRetries shares one InfraCache
// between two resolvers (the sweep-worker topology): a host one resolver
// failed to resolve must answer negatively from the cache for the other,
// with zero queries on the wire.
func TestSharedCacheNegativeEntrySuppressesRetries(t *testing.T) {
	net, roots := buildTestInternet(t)
	comTLD := mustAddr("192.5.6.30")
	var queries atomic.Int64
	net.SetTap(func(netip.Addr, *Message) { queries.Add(1) })
	r1 := NewResolver(net, roots)
	r1.Client.Retries = 1
	r2 := NewResolver(net, roots)
	r2.Client.Retries = 1
	r2.SetCache(r1.Cache())

	net.SetUnreachable(comTLD, true)
	if _, err := r1.LookupHost(context.Background(), "ns1.hosting.com.", 0); err == nil {
		t.Fatal("LookupHost succeeded with the .com branch down")
	}
	before := queries.Load()
	if _, err := r2.LookupHost(context.Background(), "ns1.hosting.com.", 0); err == nil {
		t.Fatal("second resolver resolved a negative-cached host")
	}
	if delta := queries.Load() - before; delta != 0 {
		t.Errorf("negative-cached lookup via shared cache sent %d queries, want 0", delta)
	}
	if cs := r2.CacheStats(); cs.HostHits == 0 {
		t.Errorf("negative-cache hit not counted: %+v", cs)
	}

	// Recovery is shared too: one flush, both resolvers see the live host.
	net.SetUnreachable(comTLD, false)
	r1.FlushCache()
	for _, r := range []*Resolver{r1, r2} {
		addrs, err := r.LookupHost(context.Background(), "ns1.hosting.com.", 0)
		if err != nil {
			t.Fatalf("post-flush lookup: %v", err)
		}
		if len(addrs) != 1 || addrs[0] != mustAddr("172.64.32.99") {
			t.Fatalf("post-flush addrs = %v", addrs)
		}
	}
}

// TestFlushCacheMidSweepRace hammers FlushCache concurrently with
// resolutions (including the glueless out-of-bailiwick chase, which
// nests LookupHost inside a resolution). In a static world every lookup
// must still return the right answer no matter where a flush lands; the
// race detector checks the synchronization.
func TestFlushCacheMidSweepRace(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	ctx := context.Background()
	const lookers = 6
	iters := 40
	if testing.Short() {
		iters = 10
	}

	stop := make(chan struct{})
	var flusher sync.WaitGroup
	flusher.Add(1)
	go func() {
		defer flusher.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.FlushCache()
			runtime.Gosched()
		}
	}()

	errs := make(chan error, lookers)
	var wg sync.WaitGroup
	for g := 0; g < lookers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name, want := "example.ru.", mustAddr("194.58.117.5")
			if g%2 == 1 {
				name, want = "foreign.ru.", mustAddr("172.64.33.1")
			}
			for i := 0; i < iters; i++ {
				addrs, err := r.LookupA(ctx, name, nil, nil)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", name, err)
					return
				}
				if len(addrs) != 1 || addrs[0] != want {
					errs <- fmt.Errorf("%s = %v, want [%v]", name, addrs, want)
					return
				}
				if _, err := r.LookupHost(ctx, "ns1.reg.ru.", 0); err != nil {
					errs <- fmt.Errorf("ns1.reg.ru.: %w", err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(stop)
	flusher.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestCacheStatsPinnedOnFixture pins the exact counter semantics on the
// fixed three-level fixture, single-threaded so every value is forced:
// which walks hit the delegation cache, which host lookups were glue
// hits versus led misses, and the final cache sizes.
func TestCacheStatsPinnedOnFixture(t *testing.T) {
	net, roots := buildTestInternet(t)
	r := NewResolver(net, roots)
	ctx := context.Background()

	check := func(label string, want CacheStats) {
		t.Helper()
		if got := r.CacheStats(); got != want {
			t.Fatalf("%s: stats = %+v, want %+v", label, got, want)
		}
	}

	// Cold resolution walks from the roots (one zone miss) and learns
	// ru. + example.ru. cuts plus both glue hosts along the way.
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	check("cold example.ru", CacheStats{Zones: 2, Hosts: 2, ZoneMisses: 1})

	// Warm resolution starts at the example.ru. cut: one zone hit,
	// nothing new learned.
	if _, err := r.LookupA(ctx, "example.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	check("warm example.ru", CacheStats{Zones: 2, Hosts: 2, ZoneHits: 1, ZoneMisses: 1})

	// Both glue hosts answer from the host cache.
	for i, host := range []string{"ns1.reg.ru.", "a.dns.ripn.net."} {
		if _, err := r.LookupHost(ctx, host, 0); err != nil {
			t.Fatal(err)
		}
		check("glue hit "+host, CacheStats{Zones: 2, Hosts: 2, ZoneHits: 1, ZoneMisses: 1, HostHits: int64(i) + 1})
	}

	// foreign.ru starts from the cached ru. cut (zone hit) but its NS is
	// glueless under .com: one led host miss whose nested resolution
	// walks from the roots again (zone miss) and learns the com. branch.
	if _, err := r.LookupA(ctx, "foreign.ru.", nil, nil); err != nil {
		t.Fatal(err)
	}
	check("glueless foreign.ru", CacheStats{Zones: 5, Hosts: 4, ZoneHits: 2, ZoneMisses: 2, HostHits: 2, HostMisses: 1})

	// The chased host is now cached.
	if _, err := r.LookupHost(ctx, "ns1.hosting.com.", 0); err != nil {
		t.Fatal(err)
	}
	final := CacheStats{Zones: 5, Hosts: 4, ZoneHits: 2, ZoneMisses: 2, HostHits: 3, HostMisses: 1}
	check("chased host hit", final)

	if final.Hits() != 5 || final.Misses() != 3 {
		t.Errorf("aggregates = %d hits / %d misses, want 5/3", final.Hits(), final.Misses())
	}
}
