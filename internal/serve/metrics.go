package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/store"
)

// metrics is the server's observability surface, exposed at /metrics in
// the Prometheus text exposition format (hand-rolled: the repo is
// stdlib-only). Counters are monotonically increasing over the process
// lifetime; the in-flight gauge is the only instantaneous value.
type metrics struct {
	inflight atomic.Int64

	mu sync.Mutex
	// requests counts finished requests by (endpoint label, status code).
	requests map[reqKey]uint64
	// Latency histogram over all endpoints: per-bucket counts for the
	// upper bounds in latencyBuckets, plus a +Inf overflow, a sum and a
	// count (the standard Prometheus histogram triplet).
	bucketCounts [len(latencyBuckets) + 1]uint64
	durSum       float64
	durCount     uint64

	cacheHits    uint64
	cacheMisses  uint64
	coalesced    uint64
	computations uint64
	saturations  uint64
}

type reqKey struct {
	endpoint string
	code     int
}

// latencyBuckets are the histogram upper bounds in seconds; warm cache
// hits land in the sub-millisecond buckets, cold engine computations in
// the upper ones, so the histogram shape is the cache's health at a
// glance.
var latencyBuckets = [...]float64{0.0005, 0.001, 0.005, 0.025, 0.1, 0.5, 2.5}

func newMetrics() *metrics {
	return &metrics{requests: make(map[reqKey]uint64)}
}

// observe records one finished request.
func (m *metrics) observe(endpoint string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requests[reqKey{endpoint, code}]++
	i := 0
	for ; i < len(latencyBuckets); i++ {
		if secs <= latencyBuckets[i] {
			break
		}
	}
	m.bucketCounts[i]++
	m.durSum += secs
	m.durCount++
}

func (m *metrics) hit()       { m.mu.Lock(); m.cacheHits++; m.mu.Unlock() }
func (m *metrics) miss()      { m.mu.Lock(); m.cacheMisses++; m.mu.Unlock() }
func (m *metrics) coalesce()  { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *metrics) computed()  { m.mu.Lock(); m.computations++; m.mu.Unlock() }
func (m *metrics) saturated() { m.mu.Lock(); m.saturations++; m.mu.Unlock() }

// WriteTo renders the text exposition. Lines are emitted in a fixed,
// sorted order so scrapes are deterministic.
func (m *metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cw := &countWriter{w: w}

	fmt.Fprintln(cw, "# HELP whereru_requests_total Finished HTTP requests by endpoint and status code.")
	fmt.Fprintln(cw, "# TYPE whereru_requests_total counter")
	keys := make([]reqKey, 0, len(m.requests))
	for k := range m.requests {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(cw, "whereru_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	fmt.Fprintln(cw, "# HELP whereru_request_duration_seconds Request latency histogram (all endpoints).")
	fmt.Fprintln(cw, "# TYPE whereru_request_duration_seconds histogram")
	var cum uint64
	for i, le := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(cw, "whereru_request_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(cw, "whereru_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(cw, "whereru_request_duration_seconds_sum %g\n", m.durSum)
	fmt.Fprintf(cw, "whereru_request_duration_seconds_count %d\n", m.durCount)

	for _, c := range []struct {
		name, help string
		val        uint64
	}{
		{"whereru_cache_hits_total", "Requests answered from the versioned result cache.", m.cacheHits},
		{"whereru_cache_misses_total", "Requests that found no cached result and led a computation.", m.cacheMisses},
		{"whereru_cache_coalesced_total", "Requests that piggybacked on an in-flight identical computation.", m.coalesced},
		{"whereru_computations_total", "Analysis engine computations actually run.", m.computations},
		{"whereru_saturation_rejections_total", "Requests rejected with 503 because the computation semaphore was full.", m.saturations},
	} {
		fmt.Fprintf(cw, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.val)
	}

	fmt.Fprintln(cw, "# HELP whereru_inflight_requests Requests currently being served.")
	fmt.Fprintln(cw, "# TYPE whereru_inflight_requests gauge")
	fmt.Fprintf(cw, "whereru_inflight_requests %d\n", m.inflight.Load())
	return cw.n, cw.err
}

// writeSweepCacheMetrics renders the resolver infrastructure-cache
// counters accumulated across the study's collected sweeps (zero on a
// study loaded from a store file, which carries no runtime stats).
func writeSweepCacheMetrics(w io.Writer, stats []openintel.SweepStats) {
	var hits, misses, coalesced int64
	for _, st := range stats {
		hits += st.CacheHits
		misses += st.CacheMisses
		coalesced += st.CacheCoalesced
	}
	for _, c := range []struct {
		name, help string
		val        int64
	}{
		{"whereru_sweep_cache_hits_total", "Resolver infrastructure-cache hits across all collected sweeps.", hits},
		{"whereru_sweep_cache_misses_total", "Resolver infrastructure-cache misses across all collected sweeps.", misses},
		{"whereru_sweep_cache_coalesced_total", "Resolver lookups that coalesced onto an in-flight identical miss.", coalesced},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", c.name, c.help, c.name, c.name, c.val)
	}
}

// writeStoreMemMetrics renders the measurement store's interning and
// memory accounting as gauges: values move with store contents (they can
// shrink on compaction), not monotonically.
func writeStoreMemMetrics(w io.Writer, ms store.MemStats) {
	for _, g := range []struct {
		name, help string
		val        int64
	}{
		{"whereru_store_domains", "Domains held by the measurement store.", int64(ms.Domains)},
		{"whereru_store_epochs", "Live (domain, epoch) rows in the columnar store.", ms.Epochs},
		{"whereru_store_distinct_configs", "Distinct interned DNS configurations.", int64(ms.DistinctConfigs)},
		{"whereru_store_interned_hosts", "Distinct pooled hostname strings.", int64(ms.InternedHosts)},
		{"whereru_store_resident_bytes", "Accounted resident bytes of the store representation.", ms.ResidentBytes()},
		{"whereru_store_column_bytes", "Accounted bytes held by the epoch columns and row index.", ms.ColumnBytes},
		{"whereru_store_intern_bytes", "Accounted bytes held by the config intern table and pools.", ms.InternBytes},
	} {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %d\n", g.name, g.help, g.name, g.name, g.val)
	}
}

type countWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
