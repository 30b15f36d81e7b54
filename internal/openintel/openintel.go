// Package openintel is the active DNS measurement pipeline, modeled on the
// OpenINTEL platform the paper's data comes from (van Rijswijk-Deij et al.,
// JSAC 2016): daily zone-file seeds drive an iterative-resolution sweep
// that records, for every registered domain, its delegated NS set, the A
// records of those name servers, and the A records of the domain apex.
// Sweeps run on a worker pool over a dns.Transport (the in-memory wire,
// optionally under fault and route layers) and feed the epoch-compressed
// measurement store.
package openintel

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Seeder supplies the domain inventory for a sweep day (the daily zone
// snapshot), sorted by name: a checkpointed sweep journals the day in
// the order given. registry.Group satisfies this.
type Seeder interface {
	ZoneSnapshot(day simtime.Day) []string
}

// Clock moves the simulated world to the sweep day. netsim.Clock
// satisfies this.
type Clock interface {
	Set(day simtime.Day)
}

// Pipeline sweeps the zone and stores measurements.
type Pipeline struct {
	Resolver *dns.Resolver
	Seeds    Seeder
	Clock    Clock
	Store    *store.Store
	// Workers is the sweep concurrency (default 8).
	Workers int
	// CollectMX enables the mail-measurement extension: each domain's MX
	// records are collected alongside NS and A (OpenINTEL collects MX on
	// the real platform too).
	CollectMX bool
	// Checkpoint, when set, makes collection crash-safe: after every
	// completed sweep (and every skipped day) the pipeline appends a
	// checksummed segment to the journal and fsyncs it before moving on,
	// so a killed run resumes from the first unswept day via
	// ReplayJournal instead of starting over.
	Checkpoint *store.Journal
	// Routes, when set, is the AS-level routing oracle of a scenario run:
	// each measured domain's simulated path latency (summed over its
	// routed server addresses) is folded into the per-domain latency
	// histogram. The histogram feeds SweepRuntime only — journal and store
	// bytes never see it — so Routes changes reported latency quantiles
	// without touching the determinism contract. The resolver's transport is
	// expected to consult the same oracle for reachability.
	Routes dns.RoutePolicy

	segment store.ListBuilder // a checkpointed sweep's journal segment, reused by the next
	chunks  []*chunk          // measurePool's chunks, reused by the next sweep
}

// SweepStats summarizes one sweep: the record of what it measured, which
// the journal keeps and /api/v1/sweeps serves, and what this run observed
// while measuring it. A sweep loaded from a journal has a zero runtime.
type SweepStats struct {
	Day simtime.Day
	store.JournalStats
	SweepRuntime
}

// SweepRuntime is what a run observes while it collects a sweep and a
// second run of the same sweep need not observe again. Whether a lookup
// hits, misses or coalesces, and how many queries a lossy sweep re-sends,
// depend on which worker reaches a shared cache entry first; none of it
// can change a measured answer, so none of it is journaled.
type SweepRuntime struct {
	// Duration is the sweep's wall-clock time.
	Duration time.Duration
	// LatencyP50/P90/P99 are per-domain measurement latency quantiles,
	// read off a LatencyHistogram.
	LatencyP50, LatencyP90, LatencyP99 time.Duration
	// CacheHits/CacheMisses/CacheCoalesced are the resolver
	// infrastructure-cache counter deltas across the sweep (zone and host
	// caches combined; coalesced counts lookups that waited on another
	// worker's in-flight miss).
	CacheHits, CacheMisses, CacheCoalesced int64
	// Retries is the number of re-sent DNS queries; Recovered the number
	// of queries that succeeded only after at least one failed attempt.
	// On a lossy wire a sweep can succeed for nearly every domain yet only
	// via retries: these tell that apart from a healthy sweep.
	Retries, Recovered int
}

// latBuckets is the number of latency histogram buckets: power-of-two
// microsecond bounds from 1µs to ~8.4s, plus an overflow bucket.
const latBuckets = 24

// LatencyHistogram counts per-domain measurement durations in
// power-of-two microsecond buckets. Sweep reads a sweep's quantiles off
// one, and the analysis route-latency series each day's, so the two
// views of latency are comparable.
type LatencyHistogram struct {
	Counts [latBuckets]uint32
}

// LatencyBucket returns the index of the bucket d falls in.
func LatencyBucket(d time.Duration) int {
	us := d.Microseconds()
	i := 0
	for i < latBuckets-1 && us > int64(1)<<i {
		i++
	}
	return i
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	h.Counts[LatencyBucket(d)]++
}

// Total returns the number of observations.
func (h *LatencyHistogram) Total() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += uint64(c)
	}
	return n
}

// Quantile returns the upper bound of the bucket holding the q-quantile
// observation (0 when the histogram is empty). Resolution is the bucket
// width — a factor of two — which is plenty for operator summaries.
func (h *LatencyHistogram) Quantile(q float64) time.Duration {
	total := h.Total()
	if total == 0 {
		return 0
	}
	target := uint64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += uint64(c)
		if cum >= target {
			return time.Duration(int64(1)<<i) * time.Microsecond
		}
	}
	return time.Duration(int64(1)<<(latBuckets-1)) * time.Microsecond
}

// String renders the stats compactly; degradation counters appear only
// when the sweep was degraded.
func (st SweepStats) String() string {
	s := fmt.Sprintf("%s: %d domains, %d failed, %d nxdomain", st.Day, st.Domains, st.Failed, st.NXDomain)
	if st.Retries > 0 || st.Recovered > 0 || st.Unreachable > 0 {
		s += fmt.Sprintf(" (%d retries, %d recovered, %d unreachable)", st.Retries, st.Recovered, st.Unreachable)
	}
	return s
}

// measured is one domain's pool result: the measurement plus the outcome
// flags and how long the three lookups took.
type measured struct {
	m           store.Measurement
	nx          bool
	unreachable bool
	took        time.Duration
	// simLat is the simulated path latency of the domain's routed
	// exchanges (zero without Routes) — virtual time, added to took in
	// the latency histogram but never slept.
	simLat time.Duration
}

// measurePool resolves every domain concurrently with the pipeline's
// worker count and delivers each result to sink from the calling
// goroutine (so sink needs no locking): in the order of domains when
// ordered is set, as results arrive otherwise. It is the engine under
// Sweep (whole-zone, streaming into the store and, checkpointed, into the
// journal segment), the one collection path. On cancellation it returns
// promptly; what was measured is delivered, and an ordered pool delivers a
// prefix of domains.
//
// Work is dispatched by the chunk, not the domain — a measurement is
// ~10µs, less than two channel rendezvous cost the pool: workers claim
// [lo,hi) ranges off one atomic cursor and hand each range's results over
// as one chunk. A result's host and address lists are carved from its
// chunk's arenas and valid until sink returns.
func (p *Pipeline) measurePool(ctx context.Context, day simtime.Day, domains []string, ordered bool, sink func(measured)) {
	workers := p.Workers
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, max(1, len(domains)))
	// Several chunks per worker, so a 64-domain unit or a 1:20000 zone still
	// balances; capped where a chunk's overhead is a percent of its work.
	size := min(32, max(1, len(domains)/(4*workers)))

	// A sweep has 2·workers chunks: per worker, one filling and one
	// queued. A worker takes a free chunk before it claims a range, so at
	// most 2·workers claimed ranges are undelivered — the ring below holds
	// every early arrival — and no range waits for a chunk a later one
	// holds. The chunks outlive the sweep: every one ends it recycled, and
	// the next sweep with as many workers takes them again.
	n := 2 * workers
	if len(p.chunks) != n {
		p.chunks = make([]*chunk, n)
		for i := range p.chunks {
			// Arenas with room for a typical domain's lists (a few NS
			// hosts and an MX; their addresses and the apex's), so a chunk
			// seldom grows.
			c := &chunk{out: make([]measured, 0, size), hosts: make([]string, 0, 4*size), addrs: make([]netip.Addr, 0, 8*size)}
			c.seenHosts, c.seenAddrs = c.hosts, c.addrs
			p.chunks[i] = c
		}
	}
	free := make(chan *chunk, n)
	results := make(chan *chunk, n)
	for _, c := range p.chunks {
		free <- c
	}
	var wg sync.WaitGroup
	var cursor atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The measured domain's own zone cut lives for the worker's
			// whole run; measure resets it per domain.
			var cut dns.Cut
			for ctx.Err() == nil {
				c := <-free
				lo := int(cursor.Add(int64(size))) - size
				if lo >= len(domains) {
					return
				}
				c.seq = lo / size
				for _, domain := range domains[lo:min(lo+size, len(domains))] {
					if ctx.Err() != nil {
						break
					}
					start := time.Now()
					m, nx, unreachable := p.measure(ctx, day, domain, &cut, c)
					c.out = append(c.out, measured{m: m, nx: nx, unreachable: unreachable, took: time.Since(start), simLat: p.simLatency(day, &m)})
				}
				// A cancelled worker still hands over what it measured;
				// results has room for every chunk, so this never blocks.
				results <- c
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	// ring holds the chunks that arrived before their turn, by sequence
	// number: those of ranges next … next+n-1, one slot each. A short
	// chunk (its range cut by a cancel) ends what an ordered pool
	// delivers, since a later range's results would leave a gap.
	ring := make([]*chunk, n)
	next, short := 0, false
	deliver := func(c *chunk) {
		if !short {
			for i := range c.out {
				sink(c.out[i])
			}
			short = ordered && len(c.out) < min(size, len(domains)-c.seq*size)
		}
		c.recycle()
		free <- c
	}
	for c := range results {
		if !ordered {
			deliver(c)
			continue
		}
		ring[c.seq%n] = c
		for ; ring[next%n] != nil; next++ {
			c, ring[next%n] = ring[next%n], nil
			deliver(c)
		}
	}
}

// chunk is one claimed range of domains on its way to the sink: the
// results, and the arenas their host and address lists are carved from.
type chunk struct {
	seq   int // the range's number: its first domain's index / the chunk size
	out   []measured
	hosts []string
	addrs []netip.Addr
	// Under the poison only: the arenas' arrays as grew last saw them,
	// and every array they outgrew since the last recycling — lists
	// carved before a growth still lie there.
	seenHosts     []string
	seenAddrs     []netip.Addr
	outgrownHosts [][]string
	outgrownAddrs [][]netip.Addr
}

// poisonArenas makes every recycled chunk scribble over its arenas
// first, and over every array they outgrew, so a list anything still
// holds from a delivered chunk reads garbage. Set only by this package's
// tests, before any sweep runs.
var poisonArenas bool

// grew notes, under the poison, an arena array an append has just moved
// c off. measure calls it after each append that a list is carved from.
func (c *chunk) grew() {
	if !poisonArenas {
		return
	}
	if cap(c.hosts) != cap(c.seenHosts) {
		c.outgrownHosts, c.seenHosts = append(c.outgrownHosts, c.seenHosts), c.hosts
	}
	if cap(c.addrs) != cap(c.seenAddrs) {
		c.outgrownAddrs, c.seenAddrs = append(c.outgrownAddrs, c.seenAddrs), c.addrs
	}
}

// recycle empties c for its next range.
func (c *chunk) recycle() {
	c.out = c.out[:0]
	if poisonArenas {
		poison(c.hosts, "recycled.invalid.")
		poison(c.addrs, netip.AddrFrom4([4]byte{255, 255, 255, 255}))
		for _, hosts := range c.outgrownHosts {
			poison(hosts, "recycled.invalid.")
		}
		for _, addrs := range c.outgrownAddrs {
			poison(addrs, netip.AddrFrom4([4]byte{255, 255, 255, 255}))
		}
		c.outgrownHosts, c.outgrownAddrs = c.outgrownHosts[:0], c.outgrownAddrs[:0]
	}
	c.hosts, c.addrs = c.hosts[:0], c.addrs[:0]
}

// poison overwrites all of arena's array with v.
func poison[T any](arena []T, v T) {
	arena = arena[:cap(arena)]
	for i := range arena {
		arena[i] = v
	}
}

// Sweep measures every seeded domain for the given day. It advances the
// world clock, flushes resolver caches (yesterday's delegations must not
// leak into today's view), resolves each domain concurrently, and records
// the results. A checkpointed sweep measures the zone in name order and
// encodes each measurement into its journal segment as it arrives, so no
// day is held in memory: the segment is appended once the pool is done.
func (p *Pipeline) Sweep(ctx context.Context, day simtime.Day) (SweepStats, error) {
	begin := time.Now()
	if p.Clock != nil {
		p.Clock.Set(day)
	}
	p.Resolver.FlushCache()
	seeds := p.Seeds.ZoneSnapshot(day)
	ordered := p.Checkpoint != nil
	p.Store.BeginSweep(day)

	clientBefore := p.Resolver.Client.Stats()
	cacheBefore := p.Resolver.CacheStats()

	stats := SweepStats{Day: day, JournalStats: store.JournalStats{Domains: len(seeds)}}
	var hist LatencyHistogram
	p.segment.Reset()
	p.measurePool(ctx, day, seeds, ordered, func(r measured) {
		if r.m.Config.Failed {
			stats.Failed++
		}
		if r.nx {
			stats.NXDomain++
		}
		if r.unreachable {
			stats.Unreachable++
		}
		hist.Observe(r.took + r.simLat)
		p.Store.Add(r.m)
		if ordered {
			p.segment.Add(r.m)
		}
	})
	clientAfter := p.Resolver.Client.Stats()
	cacheAfter := p.Resolver.CacheStats()
	stats.Retries = int(clientAfter.Retries - clientBefore.Retries)
	stats.Recovered = int(clientAfter.Recovered - clientBefore.Recovered)
	stats.CacheHits = cacheAfter.Hits() - cacheBefore.Hits()
	stats.CacheMisses = cacheAfter.Misses() - cacheBefore.Misses()
	stats.CacheCoalesced = cacheAfter.Coalesced - cacheBefore.Coalesced
	stats.Duration = time.Since(begin)
	stats.LatencyP50 = hist.Quantile(0.50)
	stats.LatencyP90 = hist.Quantile(0.90)
	stats.LatencyP99 = hist.Quantile(0.99)
	if err := ctx.Err(); err != nil {
		// A cancelled sweep is incomplete: it must not reach the journal,
		// or resume would trust a partial day as collected.
		return stats, err
	}
	if p.Checkpoint != nil {
		if err := p.Checkpoint.AppendSegment(day, stats.JournalStats, &p.segment); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// SkipSweep records a scheduled day on which collection deliberately did
// not run (a simulated outage or an operator-dropped day): the store
// marks it missing so the analyses flag it as a gap, and the journal —
// when checkpointing — remembers the decision so a resumed run does not
// collect the day after all.
func (p *Pipeline) SkipSweep(day simtime.Day) error {
	p.Store.MarkMissingSweep(day)
	if p.Checkpoint != nil {
		return p.Checkpoint.AppendSweep(store.JournalSweep{Day: day, Missing: true})
	}
	return nil
}

// ReplayJournal applies previously journaled sweeps, measurements and
// all, to the store in order and returns the per-sweep stats a live run
// would have produced: the oracle store.ReplayJournalFile is tested
// against (and the workbench's replay); no program loads a journal so.
func (p *Pipeline) ReplayJournal(replay *store.JournalReplay) []SweepStats {
	for _, rec := range replay.Sweeps {
		ApplyJournaled(p.Store, rec)
	}
	return JournaledStats(replay)
}

// ApplyJournaled applies one journaled record to st — the mutation
// sequence of a live sweep, which follow mode makes per tailed segment
// and which keeps its store generations (and so its rendered documents)
// identical to a cold load's. A sweep replays as BeginSweep plus its
// measurements and returns the stats it was journaled with; a
// missing-day marker replays as a gap record and returns swept == false.
// (store.ReplayJournalFile performs the same sequence from the journal's
// own bytes; the store's differential test holds the two together.)
func ApplyJournaled(st *store.Store, rec store.JournalSweep) (stats SweepStats, swept bool) {
	if rec.Missing {
		st.MarkMissingSweep(rec.Day)
		return SweepStats{}, false
	}
	st.AddSweep(rec.Day, rec.Measurements)
	return journaledStats(rec), true
}

func journaledStats(rec store.JournalSweep) SweepStats {
	return SweepStats{Day: rec.Day, JournalStats: rec.Stats}
}

// JournaledStats returns the per-sweep stats of a replay the store
// already holds (store.ResumeJournalFS, store.ReplayJournalFile): what
// ReplayJournal returns, without the applying.
func JournaledStats(replay *store.JournalReplay) []SweepStats {
	out := make([]SweepStats, 0, len(replay.Sweeps))
	for _, rec := range replay.Sweeps {
		if !rec.Missing {
			out = append(out, journaledStats(rec))
		}
	}
	return out
}

// Covered returns the set of schedule days a replay already handled
// (collected or deliberately skipped).
func Covered(replay *store.JournalReplay) map[simtime.Day]bool {
	done := make(map[simtime.Day]bool, len(replay.Sweeps))
	for _, rec := range replay.Sweeps {
		done[rec.Day] = true
	}
	return done
}

// measure performs the three OpenINTEL lookups for one domain. The
// unreachable result marks a domain whose delegation answered but whose
// name-server hosts all failed to resolve to an address. cut is the
// worker's, reset here for the domain's own zone cut. The measurement's
// lists are carved from c's arenas, with full-slice expressions so that
// no append reaches a neighbour's.
func (p *Pipeline) measure(ctx context.Context, day simtime.Day, domain string, cut *dns.Cut, c *chunk) (store.Measurement, bool, bool) {
	m := store.Measurement{Domain: domain, Day: day}
	cut.Reset()
	h0 := len(c.hosts)
	var err error
	c.hosts, err = p.Resolver.LookupNS(ctx, domain, cut, c.hosts)
	if err != nil {
		m.Config.Failed = true
		return m, false, false
	}
	c.grew()
	nsHosts := c.hosts[h0:len(c.hosts):len(c.hosts)]
	nx := len(nsHosts) == 0
	m.Config.NSHosts = nsHosts
	// NS sets are ≤4 hosts in the common case, so a linear duplicate scan
	// over the earlier hosts replaces the per-domain seen map.
	a0 := len(c.addrs)
	for i, h := range nsHosts {
		if hostSeenBefore(nsHosts[:i], h) {
			continue
		}
		addrs, err := p.Resolver.LookupHost(ctx, h, 0)
		if err != nil {
			continue // unreachable NS host: record what we can
		}
		c.addrs = append(c.addrs, addrs...)
	}
	c.grew()
	m.Config.NSAddrs = c.addrs[a0:len(c.addrs):len(c.addrs)]
	unreachable := len(nsHosts) > 0 && len(m.Config.NSAddrs) == 0
	a0 = len(c.addrs)
	if c.addrs, err = p.Resolver.LookupA(ctx, domain, cut, c.addrs); err == nil {
		c.grew()
		m.Config.ApexAddrs = c.addrs[a0:len(c.addrs):len(c.addrs)]
	}
	if p.CollectMX {
		h0 = len(c.hosts)
		if c.hosts, err = p.Resolver.LookupMX(ctx, domain, cut, c.hosts); err == nil {
			c.grew()
			m.Config.MXHosts = c.hosts[h0:len(c.hosts):len(c.hosts)]
		}
	}
	return m, nx, unreachable
}

// simLatency sums the simulated path round-trip latency over a
// measurement's routed server addresses (name servers and apex hosts).
// Unreachable addresses contribute nothing — their cost already shows up
// as missing records.
func (p *Pipeline) simLatency(day simtime.Day, m *store.Measurement) time.Duration {
	if p.Routes == nil {
		return 0
	}
	var total time.Duration
	for _, a := range m.Config.NSAddrs {
		if lat, ok := p.Routes.Route(day, a); ok {
			total += lat
		}
	}
	for _, a := range m.Config.ApexAddrs {
		if lat, ok := p.Routes.Route(day, a); ok {
			total += lat
		}
	}
	return total
}

// hostSeenBefore reports whether h already occurred among the earlier
// hosts of the same NS set (sets are tiny; no map needed).
func hostSeenBefore(earlier []string, h string) bool {
	for _, e := range earlier {
		if e == h {
			return true
		}
	}
	return false
}

// Schedule produces the sweep days for a study window: monthly snapshots
// until denseFrom, then every denseStep days through the end. The paper's
// long-horizon figures are monthly-granularity while the 2022 analyses
// are daily; this mirrors that without 1,803 full sweeps.
func Schedule(start, end, denseFrom simtime.Day, denseStep int) []simtime.Day {
	if denseStep <= 0 {
		denseStep = 1
	}
	if end < start {
		return nil
	}
	if denseFrom < start {
		// A dense window opening before the study does starts with it:
		// sweeps must never predate the first zone snapshot.
		denseFrom = start
	}
	var days []simtime.Day
	for d := start; d <= end && d < denseFrom; {
		days = append(days, d)
		next := d.NextMonth()
		if next <= d {
			break
		}
		d = next
	}
	for d := denseFrom; d <= end; d = d.Add(denseStep) {
		days = append(days, d)
	}
	// Always include the final day so end-of-study numbers exist.
	if n := len(days); n == 0 || days[n-1] != end {
		days = append(days, end)
	}
	return days
}

// Run sweeps every day in the schedule, in order.
func (p *Pipeline) Run(ctx context.Context, schedule []simtime.Day) ([]SweepStats, error) {
	out := make([]SweepStats, 0, len(schedule))
	for _, day := range schedule {
		st, err := p.Sweep(ctx, day)
		if err != nil {
			return out, fmt.Errorf("openintel: sweep %s: %w", day, err)
		}
		out = append(out, st)
	}
	return out, nil
}
