package main

// The catalogue is the benchmark's single definition of workloads and
// metrics. BENCHMARK.json at the repository root is its serialisation
// (catalog_test.go holds the two together), the report and -compare
// read names, units, directions and bounds from here, and a workload
// that sets a metric the catalogue does not list fails the run.

// Workload names. Later issues refer to them; do not rename.
const (
	wlCollectFaulty = "collect_faulty_durable"
	wlCollectClean  = "collect_clean"
	wlResumeReport  = "resume_report"
	wlServeLive     = "serve_live"
)

type workloadDef struct {
	Name string
	Why  string
}

// workloads lists the four workloads in the order a full run executes
// them.
var workloads = []workloadDef{
	{wlCollectFaulty, "full schedule with 5% loss, netnod-depeering routes and an fsynced journal: retry/failover/route path, journal encode+fsync and the store encoder all work"},
	{wlCollectClean, "same schedule with no journal, loss or scenario: resolver fast path, wire codec, world tick and Store.Add do all the work, so a journal or fault-path change must not move it"},
	{wlResumeReport, "everything after collection: replay 90 journal segments, collect 5 live, save, load the store file, render report+CSV+markdown; the collection layers do ~5% of the work"},
	{wlServeLive, "followed server: 60 segments appended open-loop while 2 closed-loop clients issue the 80% warm / 20% cold mix and a long-poll watcher times each fold; store reads run beside store writes"},
}

type metricDef struct {
	Name string
	Unit string
	// Better is "lower" or "higher".
	Better string
	// Bound is the share of the baseline median by which the metric may
	// worsen before -compare reports "worse"; 0 means ungated.
	Bound float64
	Why   string
}

// endToEnd metrics are what the driver gates. The driver requires every
// workload to report every one of them with a non-zero value, so they
// are defined over "ops" (the workload's unit of work: a (domain,
// sweep) measurement on the collect and resume workloads, an HTTP
// request on serve_live) instead of per workload; the workload-specific
// end-to-end numbers the issue lists are the gated block of perLayer.
// Which metrics are here, and at what bound, follows from three rounds
// of ten-seed runs recorded in README.md ("Measured spread").
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "wall-clock of everything untimed: world build, fixture collection and derivation, server priming (median of the run's set-ups)"},
	{"cpu_us_per_op", "us", "lower", 0.25, "user+sys CPU over the timed region per op (median over passes). Spread over ten seeds was 6-15% in three rounds: inside this bound, but above the third of it aimed for; a 25% gate, no finer"},
	{"peak_rss_mb", "MB", "lower", 0.20, "ru_maxrss of the workload process when the timed region ends (fixtures are collected in a child, so this is the workload's own peak)"},
}

// perLayer metrics are reported by --trace 1. The first block are the
// issue's workload-specific end-to-end metrics: the driver cannot gate
// them (they are zero on the workloads that bypass them) but -compare
// does, with the bounds here. The rest are ungated layer attributions.
var perLayer = []metricDef{
	{"journal_bytes_per_measurement", "B", "lower", 0.01, "collect_faulty_durable: journal file bytes per measurement (exact)"},
	{"store_bytes_per_measurement", "B", "lower", 0.01, "collect_faulty_durable: store file bytes per measurement (exact)"},
	{"resume_s", "s", "lower", 0.25, "resume_report: world build + Collect(Resume) + SaveStoreFile, median of K"},
	{"load_s", "s", "lower", 0.25, "resume_report: core.LoadStore from the file, median of K"},
	{"report_s", "s", "lower", 0.25, "resume_report: RenderAll + ExportCSV + ExperimentsMarkdown, median of K"},
	{"warm_p50_us", "us", "lower", 0.25, "serve_live: median latency of cached-endpoint requests"},
	{"cold_p50_ms", "ms", "lower", 0.25, "serve_live: median latency of movement requests with rotating keys"},
	{"freshness_p50_ms", "ms", "lower", 0.25, "serve_live: durable AppendSweep return to watcher seeing the generation, median of 60"},
	{"op_wall_us_p50", "us", "lower", 0.25, "median over timed units of wall-clock per op: per sweep on collect (the issue's us_per_measurement_p50), per iteration on resume_report, per request on serve_live. Demoted: spread 7-28% over ten seeds"},
	{"bench.cpu_s", "s", "lower", 0.25, "CPU seconds of one pass of the timed region (median over passes)"},
	{"bench.wall_s", "s", "lower", 0, "wall-clock of one pass of the timed region; for the record, does not repeat within a tenth here"},
	{"bench.trace_overhead_pct", "%", "lower", 0, "traced vs untraced cpu_us_per_op"},

	{"world.build_s", "s", "lower", 0, "world.Build (inside core.New)"},
	{"world.tick_s", "s", "lower", 0, "Pipeline.Clock.Set summed over sweeps"},
	{"registry.zone_snapshot_s", "s", "lower", 0, "Pipeline.Seeds.ZoneSnapshot summed over sweeps"},

	{"dns.exchanges", "count", "lower", 0, "Transport.Exchange calls under the resolver"},
	{"dns.exchanges_per_measurement", "count", "lower", 0, "exchanges per (domain, sweep)"},
	{"dns.exchange_busy_s", "s", "lower", 0, "summed time inside Exchange across 8 workers: a share of cpu_s, not of wall-clock"},
	{"dns.cache_hit_ratio", "ratio", "higher", 0, "infra-cache hits / (hits+misses) from SweepStats"},
	{"dns.cache_coalesced", "count", "lower", 0, "lookups that waited on another worker's miss"},
	{"dns.retries", "count", "lower", 0, "re-sent queries (SweepStats)"},
	{"dns.recovered", "count", "lower", 0, "queries that succeeded only after a failed attempt"},
	{"dns.unreachable", "count", "lower", 0, "domains whose NS hosts resolved to no address"},
	{"dns.encode_ns_op", "ns", "lower", 0, "Message.Encode over 10k captured messages"},
	{"dns.decode_ns_op", "ns", "lower", 0, "dns.Decode over the same 10k"},

	{"openintel.sweep_wall_s", "s", "lower", 0, "Pipeline.Sweep summed over the schedule"},
	{"openintel.sweep_self_s", "s", "lower", 0, "sweep wall minus tick, snapshot and journal"},
	{"openintel.measurements_per_s", "1/s", "higher", 0, "measurements / collect wall"},
	{"openintel.failed", "count", "lower", 0, "measurements recorded Failed"},
	{"openintel.allocs_per_measurement", "count", "lower", 0, "runtime mallocs over Collect / measurements"},
	{"openintel.alloc_bytes_per_measurement", "B", "lower", 0, "runtime bytes allocated over Collect / measurements"},
	{"scan.tls_sweeps_s", "s", "lower", 0, "weekly TLS scans after the DNS sweeps"},
	{"core.collect_wall_s", "s", "lower", 0, "the whole collection loop, sweeps + TLS scans"},

	{"store.add_ns_op", "ns", "lower", 0, "ReplayJournal of J into a fresh store / measurements"},
	{"store.add_allocs_op", "count", "lower", 0, "mallocs over that replay / measurements"},
	{"store.epochs", "count", "lower", 0, "live (domain, epoch) rows"},
	{"store.epoch_compression", "ratio", "higher", 0, "naive records / epochs"},
	{"store.bytes_per_domain_epoch", "B", "lower", 0, "MemStats.BytesPerEpoch"},
	{"store.snapshot_ms", "ms", "lower", 0, "Store.Snapshot"},

	{"store.journal_encode_s", "s", "lower", 0, "AppendSweep of every segment over a discarding FS"},
	{"store.journal_write_s", "s", "lower", 0, "File.Write under the journal"},
	{"store.journal_fsync_s", "s", "lower", 0, "File.Sync under the journal"},
	{"store.journal_fsyncs", "count", "lower", 0, "Sync calls on the journal file"},
	{"store.journal_bytes", "B", "lower", 0, "bytes written to the journal file"},

	{"store.journal_decode_s", "s", "lower", 0, "DecodeJournal over in-memory bytes"},
	{"store.journal_decode_mb_s", "MB/s", "higher", 0, "journal bytes / decode time"},
	{"store.replay_s", "s", "lower", 0, "Pipeline.ReplayJournal into a fresh store"},
	{"store.tail_next_ms_p50", "ms", "lower", 0, "Tailer.Next per already-durable segment"},

	{"store.encode_s", "s", "lower", 0, "Store.WriteTo to a discarding writer"},
	{"store.decode_s", "s", "lower", 0, "store.Read from memory"},
	{"store.file_bytes", "B", "lower", 0, "store file size"},

	{"analysis.fig1_ms", "ms", "lower", 0, "Study.Fig1 on a freshly loaded store"},
	{"analysis.fig2_ms", "ms", "lower", 0, "Study.Fig2"},
	{"analysis.fig3_ms", "ms", "lower", 0, "Study.Fig3"},
	{"analysis.fig4_ms", "ms", "lower", 0, "Study.Fig4"},
	{"analysis.fig5_ms", "ms", "lower", 0, "Study.Fig5"},
	{"analysis.hosting_ms", "ms", "lower", 0, "Study.Hosting"},
	{"analysis.mail_ms", "ms", "lower", 0, "Study.Mail"},
	{"analysis.reachability_ms", "ms", "lower", 0, "Study.Reachability"},
	{"analysis.latency_ms", "ms", "lower", 0, "Study.RouteLatency"},
	{"analysis.movement_ms", "ms", "lower", 0, "Study.Movement for the four case-study ASNs"},
	{"analysis.concentration_ms", "ms", "lower", 0, "Study.Concentration"},
	{"analysis.pki_ms", "ms", "lower", 0, "Table1 + Table2 + Fig8 + RussianCA"},
	{"analysis.series_s", "s", "lower", 0, "sum of the twelve analysis rows"},
	{"core.render_all_s", "s", "lower", 0, "Study.RenderAll to a discarding writer"},
	{"core.export_csv_s", "s", "lower", 0, "Study.ExportCSV"},
	{"core.markdown_s", "s", "lower", 0, "Study.ExperimentsMarkdown"},
	{"report.self_s", "s", "lower", 0, "render_all minus series: chart and table rendering"},

	{"stream.prime_s", "s", "lower", 0, "FoldReplay of the 35 priming segments"},
	{"stream.fold_ms_p50", "ms", "lower", 0, "Engine.Fold per live segment, outside the server"},
	{"stream.fold_ms_max", "ms", "lower", 0, "slowest of those folds"},
	{"stream.fold_ops_per_sweep", "count", "lower", 0, "FoldStats classifications + points patched per fold (exact)"},
	{"stream.read_ms", "ms", "lower", 0, "reading every series out of the engine"},
	{"core.apply_sweep_ms_p50", "ms", "lower", 0, "Study.ApplySweep per live segment"},

	{"serve.startup_s", "s", "lower", 0, "LoadCheckpointReplay + engine prime + serve.New + listen"},
	{"serve.requests_per_s", "1/s", "higher", 0, "requests completed / window"},
	{"serve.warm_p99_us", "us", "lower", 0, "warm p99"},
	{"serve.warm_p999_us", "us", "lower", 0, "warm p99.9"},
	{"serve.warm_during_fold_p99_us", "us", "lower", 0, "p99 of warm requests overlapping an append-to-visible window"},
	{"serve.cold_p90_ms", "ms", "lower", 0, "cold p90"},
	{"serve.cold_p99_ms", "ms", "lower", 0, "cold p99"},
	{"serve.freshness_p80_ms", "ms", "lower", 0, "freshness p80 (highest percentile 60 samples support)"},
	{"serve.freshness_max_ms", "ms", "lower", 0, "slowest append-to-visible"},
	{"serve.cache_hit_ratio", "ratio", "higher", 0, "/metrics: hits / (hits+misses+coalesced)"},
	{"serve.coalesced", "count", "lower", 0, "/metrics: requests that joined an in-flight computation"},
	{"serve.saturated_503", "count", "lower", 0, "/metrics: 503s from the computation semaphore"},
	{"serve.cache_patched", "count", "higher", 0, "/metrics: cache entries installed by follow-mode patching"},
	{"serve.fold_seconds_sum", "s", "lower", 0, "/metrics: apply+fold+patch time summed over segments"},
	{"serve.appender_late_ms_p50", "ms", "lower", 0, "how late the open-loop appender started each append"},
}

// metricByName indexes both lists.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(endToEnd)+len(perLayer))
	for _, d := range endToEnd {
		m[d.Name] = d
	}
	for _, d := range perLayer {
		m[d.Name] = d
	}
	return m
}()

// runSeconds is BENCHMARK.json's run_seconds and the -seconds default.
const runSeconds = 10

// benchCommand is BENCHMARK.json's command.
var benchCommand = []string{"go", "run", "-C", "bench", "."}
