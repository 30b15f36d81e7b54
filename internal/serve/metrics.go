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

// write renders the text exposition. Lines are emitted in a fixed,
// sorted order so scrapes are deterministic.
func (m *metrics) write(w io.Writer) {
	m.mu.Lock()
	defer m.mu.Unlock()

	writeFamily(w, "whereru_requests_total", "counter", "Finished HTTP requests by endpoint and status code.")
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
		fmt.Fprintf(w, "whereru_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.requests[k])
	}

	writeFamily(w, "whereru_request_duration_seconds", "histogram", "Request latency histogram (all endpoints).")
	var cum uint64
	for i, le := range latencyBuckets {
		cum += m.bucketCounts[i]
		fmt.Fprintf(w, "whereru_request_duration_seconds_bucket{le=\"%g\"} %d\n", le, cum)
	}
	cum += m.bucketCounts[len(latencyBuckets)]
	fmt.Fprintf(w, "whereru_request_duration_seconds_bucket{le=\"+Inf\"} %d\n", cum)
	fmt.Fprintf(w, "whereru_request_duration_seconds_sum %g\n", m.durSum)
	fmt.Fprintf(w, "whereru_request_duration_seconds_count %d\n", m.durCount)

	writeScalars(w,
		scalar{"whereru_cache_hits_total", "counter", "Requests answered from the versioned result cache.", int64(m.cacheHits)},
		scalar{"whereru_cache_misses_total", "counter", "Requests that found no cached result and led a computation.", int64(m.cacheMisses)},
		scalar{"whereru_cache_coalesced_total", "counter", "Requests that piggybacked on an in-flight identical computation.", int64(m.coalesced)},
		scalar{"whereru_computations_total", "counter", "Analysis engine computations actually run.", int64(m.computations)},
		scalar{"whereru_saturation_rejections_total", "counter", "Requests rejected with 503 because the computation semaphore was full.", int64(m.saturations)},
		scalar{"whereru_inflight_requests", "gauge", "Requests currently being served.", m.inflight.Load()},
	)
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
	writeScalars(w,
		scalar{"whereru_sweep_cache_hits_total", "counter", "Resolver infrastructure-cache hits across all collected sweeps.", hits},
		scalar{"whereru_sweep_cache_misses_total", "counter", "Resolver infrastructure-cache misses across all collected sweeps.", misses},
		scalar{"whereru_sweep_cache_coalesced_total", "counter", "Resolver lookups that coalesced onto an in-flight identical miss.", coalesced},
	)
}

// writeStoreMemMetrics renders the measurement store's interning and
// memory accounting as gauges: values move with store contents (they can
// shrink on compaction), not monotonically.
func writeStoreMemMetrics(w io.Writer, ms store.MemStats) {
	writeScalars(w,
		scalar{"whereru_store_domains", "gauge", "Domains held by the measurement store.", int64(ms.Domains)},
		scalar{"whereru_store_epochs", "gauge", "Live (domain, epoch) rows in the columnar store.", ms.Epochs},
		scalar{"whereru_store_distinct_configs", "gauge", "Distinct interned DNS configurations.", int64(ms.DistinctConfigs)},
		scalar{"whereru_store_interned_hosts", "gauge", "Distinct pooled hostname strings.", int64(ms.InternedHosts)},
		scalar{"whereru_store_resident_bytes", "gauge", "Accounted resident bytes of the store representation.", ms.ResidentBytes()},
		scalar{"whereru_store_column_bytes", "gauge", "Accounted bytes held by the epoch columns and row index.", ms.ColumnBytes},
		scalar{"whereru_store_intern_bytes", "gauge", "Accounted bytes held by the config intern table and pools.", ms.InternBytes},
	)
}

// writeFamily writes a metric family's # HELP and # TYPE lines; its
// samples follow. Every family on /metrics starts here.
func writeFamily(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// scalar is a counter or gauge with one unlabelled sample.
type scalar struct {
	name, typ, help string
	val             int64
}

// writeScalars writes each scalar as its family and its one sample.
func writeScalars(w io.Writer, fams ...scalar) {
	for _, f := range fams {
		writeFamily(w, f.name, f.typ, f.help)
		fmt.Fprintf(w, "%s %d\n", f.name, f.val)
	}
}
