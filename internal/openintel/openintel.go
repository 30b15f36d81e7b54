// Package openintel is the active DNS measurement pipeline, modeled on the
// OpenINTEL platform the paper's data comes from (van Rijswijk-Deij et al.,
// JSAC 2016): daily zone-file seeds drive an iterative-resolution sweep
// that records, for every registered domain, its delegated NS set, the A
// records of those name servers, and the A records of the domain apex.
// Sweeps run on a worker pool over any dns.Transport (in-memory for scale,
// UDP for realism) and feed the epoch-compressed measurement store.
package openintel

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Seeder supplies the domain inventory for a sweep day (the daily zone
// snapshot). registry.Group satisfies this.
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
	// OnProgress, if set, is called periodically with (done, total).
	OnProgress func(done, total int)
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
	// of queries that succeeded only after at least one failed, flapped or
	// truncated attempt. On a lossy wire a sweep can succeed for nearly
	// every domain yet only via retries: these tell that apart from a
	// healthy sweep.
	Retries, Recovered int
}

// latBuckets is the number of latency histogram buckets: power-of-two
// microsecond bounds from 1µs to ~8.4s, plus an overflow bucket.
const latBuckets = 24

// LatencyHistogram counts per-domain measurement durations in
// power-of-two microsecond buckets. Sweep reads a sweep's quantiles off
// one; histograms merge by addition, which MeasureUnit's callers (the
// internal/grid coordinator, no program) rely on to aggregate units.
type LatencyHistogram struct {
	Counts [latBuckets]uint32
}

// Observe records one duration.
func (h *LatencyHistogram) Observe(d time.Duration) {
	us := d.Microseconds()
	i := 0
	for i < latBuckets-1 && us > int64(1)<<i {
		i++
	}
	h.Counts[i]++
}

// Merge adds another histogram's counts into h.
func (h *LatencyHistogram) Merge(o *LatencyHistogram) {
	for i := range h.Counts {
		h.Counts[i] += o.Counts[i]
	}
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
// goroutine (so sink needs no locking). It is the engine under Sweep
// (whole-zone, streaming into the store), the one collection path, and
// under MeasureUnit (a slice, no store side effects), which only the
// internal/grid package and tests call. On cancellation it returns
// promptly with whatever results already arrived delivered.
//
// Work is dispatched by the chunk, not the domain — a measurement is
// ~10µs, less than two channel rendezvous cost the pool: workers claim
// [lo,hi) ranges off one atomic cursor and hand each range's results over
// as one slice.
func (p *Pipeline) measurePool(ctx context.Context, day simtime.Day, domains []string, sink func(measured)) {
	workers := p.Workers
	if workers <= 0 {
		workers = 8
	}
	workers = min(workers, max(1, len(domains)))
	// Several chunks per worker, so a 64-domain unit or a 1:20000 zone still
	// balances; capped where a chunk's overhead is a percent of its work.
	chunk := min(32, max(1, len(domains)/(4*workers)))

	// results holds one chunk per worker, so a worker hands one over and
	// starts the next without waiting for the sink; free holds every slice
	// that can be in flight (per worker, one filling and one queued), so a
	// sweep allocates about 2·workers of them however many chunks it has.
	results := make(chan []measured, workers)
	free := make(chan []measured, 2*workers)
	var wg sync.WaitGroup
	var cursor, done atomic.Int64

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Scratch buffers live for the worker's whole run; measure
			// reuses them across domains instead of allocating per call.
			var scratch measureScratch
			for ctx.Err() == nil {
				hi := int(cursor.Add(int64(chunk)))
				lo := hi - chunk
				if lo >= len(domains) {
					return
				}
				var out []measured
				select {
				case out = <-free:
				default:
					out = make([]measured, 0, chunk)
				}
				for _, domain := range domains[lo:min(hi, len(domains))] {
					if ctx.Err() != nil {
						break
					}
					start := time.Now()
					m, nx, unreachable := p.measure(ctx, day, domain, &scratch)
					out = append(out, measured{m: m, nx: nx, unreachable: unreachable, took: time.Since(start), simLat: p.simLatency(day, &m)})
					if p.OnProgress != nil {
						if d := done.Add(1); d%2048 == 0 {
							p.OnProgress(int(d), len(domains))
						}
					}
				}
				// A cancelled worker still hands over what it measured;
				// the caller drains until close, so this cannot block it.
				results <- out
			}
		}()
	}
	go func() {
		wg.Wait()
		close(results)
	}()

	for rs := range results {
		for i := range rs {
			sink(rs[i])
		}
		select {
		case free <- rs[:0]:
		default:
		}
	}
}

// Sweep measures every seeded domain for the given day. It advances the
// world clock, flushes resolver caches (yesterday's delegations must not
// leak into today's view), resolves each domain concurrently, and records
// the results.
func (p *Pipeline) Sweep(ctx context.Context, day simtime.Day) (SweepStats, error) {
	begin := time.Now()
	if p.Clock != nil {
		p.Clock.Set(day)
	}
	p.Resolver.FlushCache()
	seeds := p.Seeds.ZoneSnapshot(day)
	p.Store.BeginSweep(day)

	clientBefore := p.Resolver.Client.Stats()
	cacheBefore := p.Resolver.CacheStats()

	stats := SweepStats{Day: day, JournalStats: store.JournalStats{Domains: len(seeds)}}
	var hist LatencyHistogram
	var collected []store.Measurement
	if p.Checkpoint != nil {
		collected = make([]store.Measurement, 0, len(seeds))
	}
	p.measurePool(ctx, day, seeds, func(r measured) {
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
		if p.Checkpoint != nil {
			collected = append(collected, r.m)
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
		if err := p.Checkpoint.AppendSweep(journalRecord(stats, collected)); err != nil {
			return stats, err
		}
	}
	return stats, nil
}

// UnitResult is what measuring one contiguous slice of the day's
// inventory produces: the measurements sorted by domain, the outcome
// tallies Sweep would have accumulated for them, and the per-domain
// latency histogram. It carries no store or journal side effects — the
// grid coordinator merges unit results deterministically and commits the
// sweep in one place.
type UnitResult struct {
	// Measurements holds one measurement per requested domain, sorted by
	// domain name.
	Measurements []store.Measurement
	Failed       int
	NXDomain     int
	Unreachable  int
	// Retries/Recovered are the resolver client's counter deltas across
	// the unit.
	Retries   int
	Recovered int
	// CacheHits/CacheMisses/CacheCoalesced are the resolver
	// infrastructure-cache counter deltas across the unit (workers
	// process units serially, so per-unit deltas are exact).
	CacheHits, CacheMisses, CacheCoalesced int64
	// Latency is the per-domain measurement latency histogram.
	Latency LatencyHistogram
}

// MeasureUnit resolves a contiguous slice of the day's inventory without
// touching the store or the journal: the worker half of a distributed
// sweep (internal/grid). The caller is responsible for day context — the
// world clock must be at day and the resolver cache flushed at day
// boundaries, exactly as Sweep does for a whole zone. A cancelled unit
// returns the context error; partial results are discarded by callers.
func (p *Pipeline) MeasureUnit(ctx context.Context, day simtime.Day, domains []string) (UnitResult, error) {
	clientBefore := p.Resolver.Client.Stats()
	cacheBefore := p.Resolver.CacheStats()
	res := UnitResult{Measurements: make([]store.Measurement, 0, len(domains))}
	p.measurePool(ctx, day, domains, func(r measured) {
		if r.m.Config.Failed {
			res.Failed++
		}
		if r.nx {
			res.NXDomain++
		}
		if r.unreachable {
			res.Unreachable++
		}
		res.Latency.Observe(r.took + r.simLat)
		res.Measurements = append(res.Measurements, r.m)
	})
	clientAfter := p.Resolver.Client.Stats()
	cacheAfter := p.Resolver.CacheStats()
	res.Retries = int(clientAfter.Retries - clientBefore.Retries)
	res.Recovered = int(clientAfter.Recovered - clientBefore.Recovered)
	res.CacheHits = cacheAfter.Hits() - cacheBefore.Hits()
	res.CacheMisses = cacheAfter.Misses() - cacheBefore.Misses()
	res.CacheCoalesced = cacheAfter.Coalesced - cacheBefore.Coalesced
	if err := ctx.Err(); err != nil {
		return res, err
	}
	sort.Slice(res.Measurements, func(i, j int) bool {
		return res.Measurements[i].Domain < res.Measurements[j].Domain
	})
	return res, nil
}

// CommitSweep records an externally-measured sweep: it registers the day,
// adds every measurement to the store, and journals the sweep when
// checkpointing — the commit half of Sweep, used by the grid coordinator
// after merging worker results. Measurements must all carry stats.Day;
// their order does not affect the store or journal bytes (the store is
// per-domain and the journal sorts), but callers pass shard order so the
// commit is reproducible end to end.
func (p *Pipeline) CommitSweep(stats SweepStats, ms []store.Measurement) error {
	p.Store.BeginSweep(stats.Day)
	for _, m := range ms {
		p.Store.Add(m)
	}
	if p.Checkpoint != nil {
		if err := p.Checkpoint.AppendSweep(journalRecord(stats, ms)); err != nil {
			return err
		}
	}
	return nil
}

func journalRecord(st SweepStats, ms []store.Measurement) store.JournalSweep {
	return store.JournalSweep{Day: st.Day, Stats: st.JournalStats, Measurements: ms}
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
	st.BeginSweep(rec.Day)
	for _, m := range rec.Measurements {
		st.Add(m)
	}
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

// measureScratch holds per-worker buffers measure reuses across domains.
type measureScratch struct {
	nsAddrs []netip.Addr
}

// measure performs the three OpenINTEL lookups for one domain. The
// unreachable result marks a domain whose delegation answered but whose
// name-server hosts all failed to resolve to an address.
func (p *Pipeline) measure(ctx context.Context, day simtime.Day, domain string, scratch *measureScratch) (store.Measurement, bool, bool) {
	m := store.Measurement{Domain: domain, Day: day}
	nsHosts, err := p.Resolver.LookupNS(ctx, domain)
	if err != nil {
		m.Config.Failed = true
		return m, false, false
	}
	nx := len(nsHosts) == 0
	m.Config.NSHosts = nsHosts
	// NS sets are ≤4 hosts in the common case, so a linear duplicate scan
	// over the earlier hosts replaces the per-domain seen map, and the
	// worker's scratch buffer absorbs the address appends; the config
	// keeps one exact-size copy.
	nsAddrs := scratch.nsAddrs[:0]
	for i, h := range nsHosts {
		if hostSeenBefore(nsHosts[:i], h) {
			continue
		}
		addrs, err := p.Resolver.LookupHost(ctx, h, 0)
		if err != nil {
			continue // unreachable NS host: record what we can
		}
		nsAddrs = append(nsAddrs, addrs...)
	}
	scratch.nsAddrs = nsAddrs[:0]
	if len(nsAddrs) > 0 {
		m.Config.NSAddrs = append(make([]netip.Addr, 0, len(nsAddrs)), nsAddrs...)
	}
	unreachable := len(nsHosts) > 0 && len(m.Config.NSAddrs) == 0
	apex, err := p.Resolver.LookupA(ctx, domain)
	if err == nil {
		m.Config.ApexAddrs = apex
	}
	if p.CollectMX {
		if hosts, err := p.Resolver.LookupMX(ctx, domain); err == nil {
			m.Config.MXHosts = hosts
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
