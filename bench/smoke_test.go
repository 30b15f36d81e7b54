package main

import (
	"fmt"
	"os"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the bench binary: the
// harness collects fixtures by re-executing itself with -workload first,
// and under `go test` "itself" is this binary.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-workload" {
		if err := run(); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestSmokeAllWorkloads runs every workload end to end, traced, at
// 1:20000 with a shortened appender: every output check must pass, every
// end-to-end metric must be positive, and the layers a workload bypasses
// must read zero.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four small studies")
	}
	start := time.Now()
	cfg := config{Seed: 7, Scale: 20000, Seconds: 1, Trace: true, Dir: t.TempDir(), AppendSegments: 12}
	results := map[string]*workloadResult{}
	for _, wl := range workloads {
		res, err := runWorkload(wl.Name, cfg)
		if err != nil {
			t.Fatalf("%s: %v", wl.Name, err)
		}
		results[wl.Name] = res
		for _, c := range res.Checks {
			if !c.OK {
				t.Errorf("%s: check %s failed: %s", wl.Name, c.Name, c.Detail)
			}
		}
		if !res.Correct || res.Ops < 1 || len(res.Checks) == 0 {
			t.Errorf("%s: correct=%v ops=%d checks=%d", wl.Name, res.Correct, res.Ops, len(res.Checks))
		}
		for _, d := range endToEnd {
			if v := res.EndToEnd[d.Name]; v.Value <= 0 || v.Unit != d.Unit {
				t.Errorf("%s: end-to-end %s = %+v", wl.Name, d.Name, v)
			}
		}
		if len(res.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d per-layer metrics reported, the catalogue lists %d", wl.Name, len(res.PerLayer), len(perLayer))
		}
		if _, err := os.Stat(cfg.Dir + "/trace-" + wl.Name + ".json"); err != nil {
			t.Errorf("%s: no trace file: %v", wl.Name, err)
		}
	}

	// What should move where: the interaction table's zero cells.
	zero := func(workload string, metrics ...string) {
		for _, m := range metrics {
			if v := results[workload].PerLayer[m].Value; v != 0 {
				t.Errorf("%s bypasses %s but it reads %v", workload, m, v)
			}
		}
	}
	positive := func(workload string, metrics ...string) {
		for _, m := range metrics {
			if v := results[workload].PerLayer[m].Value; v <= 0 {
				t.Errorf("%s exercises %s but it reads %v", workload, m, v)
			}
		}
	}
	zero(wlCollectClean, "store.journal_encode_s", "store.journal_write_s", "store.journal_fsync_s", "store.journal_fsyncs", "store.journal_bytes", "dns.retries", "dns.recovered")
	positive(wlCollectClean, "dns.exchanges", "dns.encode_ns_op", "dns.decode_ns_op", "world.tick_s", "registry.zone_snapshot_s", "openintel.sweep_self_s")
	positive(wlCollectFaulty, "store.journal_encode_s", "store.journal_fsync_s", "dns.retries", "journal_bytes_per_measurement", "store_bytes_per_measurement", "store.add_ns_op")
	zero(wlResumeReport, "dns.exchanges", "dns.encode_ns_op", "serve.requests_per_s")
	positive(wlResumeReport, "resume_s", "load_s", "report_s", "analysis.fig1_ms", "store.journal_decode_s", "store.decode_s", "core.render_all_s")
	zero(wlServeLive, "dns.exchanges", "analysis.fig1_ms", "resume_s")
	positive(wlServeLive, "warm_p50_us", "cold_p50_ms", "freshness_p50_ms", "stream.fold_ms_p50", "serve.cache_patched", "store.tail_next_ms_p50", "core.apply_sweep_ms_p50")

	// The durable workload's trace must account for its collection.
	f := results[wlCollectFaulty].PerLayer
	parts := f["world.tick_s"].Value + f["registry.zone_snapshot_s"].Value + f["openintel.sweep_self_s"].Value +
		f["store.journal_encode_s"].Value + f["store.journal_write_s"].Value + f["store.journal_fsync_s"].Value + f["scan.tls_sweeps_s"].Value
	if whole := f["core.collect_wall_s"].Value; parts < 0.95*whole {
		t.Errorf("the layer times sum to %.3fs of a %.3fs collection, under 95%%", parts, whole)
	}
	rr := runResult{Workloads: results}
	if !sameFixture(rr) {
		t.Error("the workloads did not see the same fixture")
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("the smoke test took %v; it is meant to stay under 30s", d)
	}
}
