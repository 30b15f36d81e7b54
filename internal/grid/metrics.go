package grid

import (
	"fmt"
	"sync"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/store"
)

// Metrics counts what the coordinator did: enough to watch a run
// converge and — critically for the robustness story — to observe that a
// killed worker's units really were reassigned.
type Metrics struct {
	mu sync.Mutex

	unitsDispatched uint64 // assignments sent to workers (incl. reassignments)
	unitsCompleted  uint64 // units merged (worker-measured)
	unitsLocal      uint64 // units the coordinator measured itself
	unitsReassigned uint64 // lease expiries that requeued a unit
	duplicateUnits  uint64 // results for already-done units, discarded
	staleResults    uint64 // results echoing an expired lease seq (merged if unit open)
	framesRejected  uint64 // frames dropped for checksum/format errors
	workerConnects  uint64
	workerFailures  uint64 // connections that ended in an error
	workersLive     int64

	// Resolver infrastructure-cache counters, summed over merged sweeps
	// (worker-measured units report their resolver's deltas).
	cacheHits      uint64
	cacheMisses    uint64
	cacheCoalesced uint64

	unitLatency openintel.LatencyHistogram // coordinator-observed per-unit wall clock

	// store, when set via SetStore, contributes the measurement store's
	// interning/memory gauges to Snapshot.
	store *store.Store
}

// SetStore attaches the measurement store whose memory gauges Snapshot
// should report (the coordinator's merged store).
func (m *Metrics) SetStore(s *store.Store) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.store = s
	m.mu.Unlock()
}

// addCache accumulates one sweep's resolver cache counter deltas.
func (m *Metrics) addCache(hits, misses, coalesced int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.cacheHits += uint64(hits)
	m.cacheMisses += uint64(misses)
	m.cacheCoalesced += uint64(coalesced)
	m.mu.Unlock()
}

func (m *Metrics) add(field *uint64, n uint64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	*field += n
	m.mu.Unlock()
}

func (m *Metrics) observeUnit(d time.Duration) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.unitLatency.Observe(d)
	m.mu.Unlock()
}

func (m *Metrics) workerDelta(d int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.workersLive += d
	if d > 0 {
		m.workerConnects += uint64(d)
	}
	m.mu.Unlock()
}

// Snapshot returns the counters as a name→value map. The per-unit
// latency histogram follows Prometheus histogram shape: cumulative
// buckets keyed by their upper bound in microseconds
// (grid_unit_duration_microseconds_bucket_le_<bound>, bounds zero-padded
// so lexical order is numeric order; the overflow bucket is
// ..._bucket_le_inf) plus the total observation count in
// grid_unit_duration_microseconds_count. Emitted only once a unit has
// been observed.
func (m *Metrics) Snapshot() map[string]uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := map[string]uint64{
		"grid_units_dispatched_total":         m.unitsDispatched,
		"grid_units_completed_total":          m.unitsCompleted,
		"grid_units_local_total":              m.unitsLocal,
		"grid_units_reassigned_total":         m.unitsReassigned,
		"grid_duplicate_units_total":          m.duplicateUnits,
		"grid_stale_results_total":            m.staleResults,
		"grid_frames_rejected_total":          m.framesRejected,
		"grid_worker_connects_total":          m.workerConnects,
		"grid_worker_failures_total":          m.workerFailures,
		"grid_workers_live":                   uint64(m.workersLive),
		"grid_resolver_cache_hits_total":      m.cacheHits,
		"grid_resolver_cache_misses_total":    m.cacheMisses,
		"grid_resolver_cache_coalesced_total": m.cacheCoalesced,
	}
	if m.unitLatency.Total() > 0 {
		// Bucket i of LatencyHistogram holds durations in
		// (2^(i-1), 2^i] microseconds; the last bucket is overflow.
		last := len(m.unitLatency.Counts) - 1
		var cum uint64
		for i, c := range m.unitLatency.Counts {
			cum += uint64(c)
			if i == last {
				out["grid_unit_duration_microseconds_bucket_le_inf"] = cum
			} else {
				out[fmt.Sprintf("grid_unit_duration_microseconds_bucket_le_%07d", uint64(1)<<i)] = cum
			}
		}
		out["grid_unit_duration_microseconds_count"] = cum
	}
	if m.store != nil {
		ms := m.store.MemStats()
		out["grid_store_domains"] = uint64(ms.Domains)
		out["grid_store_epochs"] = uint64(ms.Epochs)
		out["grid_store_distinct_configs"] = uint64(ms.DistinctConfigs)
		out["grid_store_interned_hosts"] = uint64(ms.InternedHosts)
		out["grid_store_resident_bytes"] = uint64(ms.ResidentBytes())
	}
	return out
}
