package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"whereru/internal/core"
	"whereru/internal/store"
	"whereru/internal/world"
)

// resumeIteration is one pass of resume_report's timed region.
type resumeIteration struct {
	resume, load, report time.Duration
	cpu                  time.Duration
}

// runResumeReport is everything after collection: crash-resume from a
// 90-segment journal prefix, save, load the store file, render.
func runResumeReport(cfg config) (*workloadResult, error) {
	r := newRunner(wlResumeReport, cfg)
	dir, err := cfg.workDir(wlResumeReport)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	t0 := time.Now()
	fx, err := collectFixture(cfg, dir)
	if err != nil {
		return nil, err
	}
	replayed := len(fx.Offsets) - 1 - resumeLive
	prefix := filepath.Join(dir, "J-prefix.wrjl")
	if err := journalPrefix(fx, replayed, prefix); err != nil {
		return nil, err
	}
	r.setups = append(r.setups, time.Since(t0).Seconds())
	r.res.Digests = fx.Digests

	var its []resumeIteration
	var measured time.Duration
	for {
		it, err := r.resumeOnce(len(its), dir, prefix, fx, nil)
		if err != nil {
			return nil, err
		}
		its = append(its, it)
		measured += it.resume + it.load + it.report
		if r.enough(measured) {
			break
		}
		settle()
	}
	r.peakRSS = peakRSSMB()

	n := float64(fx.Measurements)
	var resumeS, loadS, reportS, cpuPerOp, wallPerOp, cpuS, wallS []float64
	for _, it := range its {
		total := it.resume + it.load + it.report
		resumeS = append(resumeS, it.resume.Seconds())
		loadS = append(loadS, it.load.Seconds())
		reportS = append(reportS, it.report.Seconds())
		cpuPerOp = append(cpuPerOp, micros(it.cpu)/n)
		wallPerOp = append(wallPerOp, micros(total)/n)
		cpuS = append(cpuS, it.cpu.Seconds())
		wallS = append(wallS, total.Seconds())
	}
	r.res.Passes = len(its)
	r.res.Ops = int64(len(its)) * fx.Measurements
	for _, name := range []string{"cpu_us_per_op", "op_wall_us_p50", "resume_s", "load_s", "report_s"} {
		r.res.Samples[name] = len(its)
	}
	r.m.set("cpu_us_per_op", median(cpuPerOp))
	r.m.set("op_wall_us_p50", median(wallPerOp))
	r.m.set("resume_s", median(resumeS))
	r.m.set("load_s", median(loadS))
	r.m.set("report_s", median(reportS))
	r.m.set("bench.cpu_s", median(cpuS))
	r.m.set("bench.wall_s", median(wallS))

	if cfg.Trace {
		tr := newTracer()
		it, err := r.resumeOnce(len(its), dir, prefix, fx, tr)
		if err != nil {
			return nil, err
		}
		r.traceOverhead(micros(it.cpu) / n)
		r.m.set("world.build_s", tr.total("world.build").Seconds())
		r.m.set("core.render_all_s", tr.total("core.render_all").Seconds())
		r.m.set("core.export_csv_s", tr.total("core.export_csv").Seconds())
		r.m.set("core.markdown_s", tr.total("core.markdown").Seconds())
		if err := r.storeLayerProbes(fx); err != nil {
			return nil, err
		}
		if err := r.analysisLayerProbes(fx); err != nil {
			return nil, err
		}
		if err := r.flushTrace(tr); err != nil {
			return nil, err
		}
	}
	return r.finish(), nil
}

// resumeOnce runs one iteration: resume from the journal prefix and
// save; load the saved file; render everything. The k-th iteration's
// store file and report are checked against the uninterrupted run's.
func (r *runner) resumeOnce(k int, dir, prefix string, fx *fixture, tr *tracer) (resumeIteration, error) {
	var it resumeIteration
	journal, storePath := filepath.Join(dir, "resumed.wrjl"), filepath.Join(dir, "resumed.wrst")
	raw, err := os.ReadFile(prefix)
	if err != nil {
		return it, err
	}
	if err := os.WriteFile(journal, raw, 0o644); err != nil {
		return it, err
	}
	opts := r.cfg.faultyOptions()
	opts.CheckpointPath = journal
	opts.Resume = true
	c0 := cpuTime()

	t0 := time.Now()
	tr.push("resume", 0)
	tr.push("world.build", 0)
	s, err := core.New(opts)
	tr.pop()
	if err != nil {
		return it, err
	}
	tr.push("core.collect_resume", 0)
	err = s.Collect(context.Background())
	tr.pop()
	if err != nil {
		return it, err
	}
	tr.push("store.save", 0)
	err = s.SaveStoreFile(storePath)
	tr.pop()
	tr.pop()
	if err != nil {
		return it, err
	}
	it.resume = time.Since(t0)

	t0 = time.Now()
	tr.push("core.load_store", 0)
	f, err := os.Open(storePath)
	if err != nil {
		return it, err
	}
	loaded, err := core.LoadStore(r.cfg.faultyOptions(), f)
	f.Close()
	tr.pop()
	if err != nil {
		return it, err
	}
	it.load = time.Since(t0)

	t0 = time.Now()
	tr.push("report", 0)
	reportSHA, err := reportDigest(loaded, tr)
	tr.pop()
	if err != nil {
		return it, err
	}
	it.report = time.Since(t0)
	it.cpu = cpuTime() - c0

	storeSHA, _, err := sha256File(storePath)
	if err != nil {
		return it, err
	}
	for _, c := range []struct{ what, got string }{
		{"store", storeSHA}, {"report", reportSHA},
	} {
		want := fx.Digests[c.what]
		r.check(fmt.Sprintf("resumed_%s_equals_uninterrupted[%d]", c.what, k), c.got == want, "resumed %s, uninterrupted %s", c.got[:12], want[:12])
	}
	return it, nil
}

// storeLayerProbes times the store layer's pieces of the resume and
// load phases on the fixture, one call each.
func (r *runner) storeLayerProbes(fx *fixture) error {
	if _, _, err := r.replayJournalTimed(fx.Journal, fx.Measurements); err != nil {
		return err
	}

	file, err := os.ReadFile(fx.Store)
	if err != nil {
		return err
	}
	r.m.set("store.file_bytes", float64(len(file)))
	t0 := time.Now()
	st, err := store.Read(bytes.NewReader(file))
	if err != nil {
		return err
	}
	r.m.set("store.decode_s", time.Since(t0).Seconds())
	t0 = time.Now()
	if _, err := st.WriteTo(io.Discard); err != nil {
		return err
	}
	r.m.set("store.encode_s", time.Since(t0).Seconds())
	return nil
}

// analysisLayerProbes times each analysis entry point once on a study
// freshly loaded from the fixture's store file: what report_s (and a
// cold request) is made of.
func (r *runner) analysisLayerProbes(fx *fixture) error {
	f, err := os.Open(fx.Store)
	if err != nil {
		return err
	}
	s, err := core.LoadStore(r.cfg.faultyOptions(), f)
	f.Close()
	if err != nil {
		return err
	}
	var series time.Duration
	probe := func(metric string, fn func()) {
		t0 := time.Now()
		fn()
		d := time.Since(t0)
		series += d
		r.m.set(metric, millis(d))
	}
	probe("analysis.fig1_ms", func() { s.Fig1() })
	probe("analysis.fig2_ms", func() { s.Fig2() })
	probe("analysis.fig3_ms", func() { s.Fig3() })
	probe("analysis.fig4_ms", func() { s.Fig4() })
	probe("analysis.fig5_ms", func() { s.Fig5() })
	probe("analysis.hosting_ms", func() { s.Hosting() })
	probe("analysis.mail_ms", func() { s.Mail() })
	probe("analysis.reachability_ms", func() { s.Reachability() })
	probe("analysis.latency_ms", func() { s.RouteLatency() })
	probe("analysis.movement_ms", func() {
		s.Movement(16509, world.AmazonStmtDay)
		s.Movement(47846, world.SedoStmtDay.Add(-1))
		s.Movement(13335, world.CloudflareStmtDay)
		s.Movement(15169, world.GoogleStmtDay)
	})
	probe("analysis.concentration_ms", func() { s.Concentration() })
	probe("analysis.pki_ms", func() { s.Table1(); s.Table2(); s.Fig8(); s.RussianCA() })
	r.m.set("analysis.series_s", series.Seconds())
	r.m.set("report.self_s", r.m["core.render_all_s"]-series.Seconds())
	return nil
}
