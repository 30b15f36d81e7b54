package serve

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"whereru/internal/simtime"
)

// The cold/warm pair quantifies what the result cache buys: cold runs
// the full analysis engine plus JSON rendering per request, warm is a
// map lookup and a body copy. The recorded numbers live in BENCH_4.json.

func benchRequest(b *testing.B, srv *Server, path string) {
	b.Helper()
	req := httptest.NewRequest(http.MethodGet, path, nil)
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		b.Fatalf("GET %s = %d: %.200s", path, rec.Code, rec.Body.String())
	}
}

func BenchmarkServeFig1Cold(b *testing.B) {
	srv := New(testStudy(b), Options{})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		srv.cache.purge()
		benchRequest(b, srv, "/api/v1/figures/1")
	}
}

func BenchmarkServeFig1Warm(b *testing.B) {
	srv := New(testStudy(b), Options{})
	benchRequest(b, srv, "/api/v1/figures/1")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, srv, "/api/v1/figures/1")
	}
}

func BenchmarkServeTimelineWarm(b *testing.B) {
	srv := New(testStudy(b), Options{})
	doms := srv.study.Store.Domains()
	path := "/api/v1/domains/" + doms[len(doms)/2] + "/timeline"
	benchRequest(b, srv, path)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchRequest(b, srv, path)
	}
}

// BenchmarkServeMovementCold times a movement request that computes: the
// (asn, from) keys rotate the way the bench's cold class does — eight
// provider ASNs over the 145 days from 2022-01-01 — so no key repeats
// before the rotation wraps, and the cache is emptied when it does.
func BenchmarkServeMovementCold(b *testing.B) {
	srv := New(testStudy(b), Options{})
	asns := []int{197695, 13335, 24940, 16509, 20764, 8075, 15169, 12389}
	const days = 145
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%(len(asns)*days) == 0 {
			srv.cache.purge()
		}
		from := simtime.Date(2022, 1, 1).Add(i / len(asns) % days)
		benchRequest(b, srv, fmt.Sprintf("/api/v1/movement?asn=%d&from=%s", asns[i%len(asns)], from))
	}
}

// purge empties the cache (benchmarks use it to re-run cold paths).
func (c *resultCache) purge() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[cacheKey]*entry)
	c.lru.prev, c.lru.next = &c.lru, &c.lru
}
