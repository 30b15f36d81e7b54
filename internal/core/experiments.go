package core

import (
	"fmt"
	"io"
	"strings"

	"whereru/internal/analysis"
	"whereru/internal/netsim"
	"whereru/internal/pki"
	"whereru/internal/report"
	"whereru/internal/scan"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

// Comparison is one paper-vs-measured line of the experiment index.
type Comparison struct {
	Experiment string
	Metric     string
	Paper      string
	Measured   string
}

// Source is what an experiment reads.
type Source string

const (
	// FromStore experiments read the DNS measurements: a collected, a
	// loaded and a followed study all have them.
	FromStore Source = "store"
	// FromWorld experiments read the generated world (certificates, the
	// CT log, the TLS endpoints), which every study rebuilds from its seed.
	FromWorld Source = "world"
)

// Series is what a store-sourced experiment reads. A Study computes it
// cold over its store; a folded stream.Engine holds it live, and the two
// agree, so the API renders either through the same code.
type Series interface {
	Fig1() []analysis.Point
	Fig2() []analysis.Point
	Fig3() []analysis.TLDSharePoint
	Fig4() []analysis.ASNSharePoint
	Fig5() []analysis.Point
	Hosting() []analysis.Point
	Reachability() []analysis.ReachPoint
	RouteLatency() []analysis.RouteLatencyPoint
	SweepCounts() []analysis.SweepCount
}

// Network is one hosting network a figure plots.
type Network struct {
	ASN  netsim.ASN
	Name string
	Mark byte
}

// Experiment is one figure, table or extension of the study, defined
// once: the text report, the CSVs, the markdown, the comparison index and
// the API each loop over Experiments.
type Experiment struct {
	ID string
	// Section is the paper section, as the comparison index labels the
	// experiment's rows unless compare says otherwise.
	Section string
	Source  Source
	// Title heads the experiment's report block.
	Title string
	// APITitle titles the experiment's API document; the API serves only
	// the experiments that have one. Collection ("figures" or "tables")
	// and Number (the figure or table number in the paper) place it at
	// /api/v1/{Collection}/{Number}, or at /api/v1/{Collection}/{ID}
	// without a Number; outside a collection it is at /api/v1/{ID}.
	APITitle, Collection string
	Number               int
	// CSV names the file ExportCSV writes the series to ("" for none).
	CSV string
	// From is the first day of the experiment's axis; the API lists the
	// missing sweeps from it.
	From simtime.Day
	// Plotted are the networks a hosting-share figure draws, in plot
	// order.
	Plotted []Network
	// Value is the result the API serves and the chart and CSV lay out.
	// A store-sourced experiment reads only src: the study itself cold,
	// a folded engine live. Its type picks the layout (plot, for a chart
	// or CSV) and the API document (serve's renderExperiment): a new type
	// needs a case in each.
	Value func(s *Study, src Series) any
	// ShapeOnly marks an experiment without paper-vs-measured rows: the
	// paper gives it no number to compare.
	ShapeOnly bool
	// text writes the experiment's report blocks; nil writes none.
	text func(s *Study, e *Experiment, w *errWriter)
	// compare adds the paper-vs-measured rows.
	compare func(s *Study, x *index)
}

// experiments is the study, in report order (also the comparison index's).
var experiments = []Experiment{{
	ID: "hosting", Section: "§3.1 hosting", Source: FromStore,
	APITitle: "Hosting composition (§3.1)",
	Value:    func(_ *Study, src Series) any { return src.Hosting() },
	compare: func(s *Study, x *index) {
		start, end := firstLast(s.Hosting())
		x.add("fully RU-hosted 2017-06-18", "71.0%", pctf(start.FullPct()))
		x.add("partially RU-hosted 2017-06-18", "0.19%", fmt.Sprintf("%.2f%%", start.PartPct()))
		x.add("non RU-hosted 2017-06-18", "28.81%", pctf(start.NonPct()))
		x.add("fully RU-hosted 2022-05-25", "modest increase", pctf(end.FullPct()))
	},
}, {
	ID: "fig1", Section: "Fig 1", Source: FromStore,
	Title:      "Figure 1: NS-infrastructure country composition (.ru/.рф)",
	Collection: "figures", Number: 1, APITitle: "NS-infrastructure composition of .ru/.рф",
	CSV:   "fig1_ns_composition.csv",
	Value: func(_ *Study, src Series) any { return src.Fig1() },
	text:  drawn,
	compare: func(s *Study, x *index) {
		fig1 := s.Fig1()
		start, end := firstLast(fig1)
		x.add("fully RU NS 2017-06-18", "67.0%", pctf(start.FullPct()))
		x.add("fully RU NS 2022-05-25", "73.9%", pctf(end.FullPct()))
		x.add("net change", "+6.9 pts", fmt.Sprintf("%+.1f pts", end.FullPct()-start.FullPct()))
		pre, post := at(fig1, pointDay, world.NetnodCutoffDay.Add(-1)), at(fig1, pointDay, world.NetnodCutoffDay)
		x.label = "Fig 1 / §3.2"
		x.add("Netnod cutoff partial→full step (2022-03-03)", "76k domains",
			fmt.Sprintf("%.1f pts of partial dropped", pre.PartPct()-post.PartPct()))
	},
}, {
	ID: "fig2", Section: "Fig 2", Source: FromStore,
	Title:      "Figure 2: TLD-dependency composition of delegations",
	Collection: "figures", Number: 2, APITitle: "TLD dependency of .ru/.рф name servers",
	CSV:   "fig2_tld_dependency.csv",
	Value: func(_ *Study, src Series) any { return src.Fig2() },
	text:  drawn,
	compare: func(s *Study, x *index) {
		start, end := firstLast(s.Fig2())
		x.add("fully-RU TLD dependency net change", "-6.3 pts", fmt.Sprintf("%+.1f pts", end.FullPct()-start.FullPct()))
		x.add("partial TLD dependency net change", "+7.9 pts", fmt.Sprintf("%+.1f pts", end.PartPct()-start.PartPct()))
	},
}, {
	ID: "fig3", Section: "Fig 3", Source: FromStore,
	Title:      "Figure 3: top-5 TLDs of authoritative name servers",
	Collection: "figures", Number: 3, APITitle: "Name-server TLD shares",
	CSV:   "fig3_tld_shares.csv",
	Value: func(_ *Study, src Series) any { return src.Fig3() },
	text:  drawn,
	compare: func(s *Study, x *index) {
		fig3 := s.Fig3()
		start, end := firstLast(fig3)
		x.add(".ru share 2022-05-25", "78.3%", pctf(end.Share("ru")))
		for _, t := range []struct{ tld, paper string }{
			{"com", "24.7% (+7.5)"}, {"pro", "12.4% (+3.6)"}, {"org", "9.2% (+1.0)"}, {"net", "7.3% (-1.8)"},
		} {
			x.add("."+t.tld+" share 2022-05-25 (5y change)", t.paper,
				fmt.Sprintf("%.1f%% (%+.1f)", end.Share(t.tld), end.Share(t.tld)-start.Share(t.tld)))
		}
		x.add("rank order on 2022-05-25", "ru > com > pro > org > net", fmt.Sprintf("%v", analysis.TopTLDs(fig3, 5)))
	},
}, {
	ID: "fig4", Section: "Fig 4", Source: FromStore,
	Title:      "Figure 4: hosting networks of .ru/.рф domains (top ASNs, 2022)",
	Collection: "figures", Number: 4, APITitle: "Hosting ASN shares (2022 dense window)",
	CSV: "fig4_asn_shares.csv", From: simtime.DenseWindowStart,
	Plotted: []Network{
		{16509, "Amazon (US)", 'A'},
		{47846, "Sedo (DE)", 'S'},
		{13335, "Cloudflare (US)", 'C'},
		{197695, "REG.RU", 'R'},
		{48287, "RU-CENTER", 'N'},
		{9123, "Timeweb (RU)", 'T'},
		{198610, "Beget (RU)", 'B'},
		{29802, "Serverel (NL)", 'V'},
	},
	Value: func(_ *Study, src Series) any { return src.Fig4() },
	text:  drawn,
	compare: func(s *Study, x *index) {
		// The 2022 dense window is empty when a short study window ends
		// before it: no rows rather than an index into nothing.
		fig4 := s.Fig4()
		if len(fig4) == 0 {
			return
		}
		pre, end := at(fig4, asnPointDay, simtime.ConflictStart.Add(-1)), fig4[len(fig4)-1]
		big4 := func(p analysis.ASNSharePoint) float64 {
			return p.Share(197695) + p.Share(48287) + p.Share(9123) + p.Share(198610)
		}
		x.add("RU big-four share (start→end of 2022 window)", "38% → 39%", fmt.Sprintf("%.1f%% → %.1f%%", big4(pre), big4(end)))
		x.add("Cloudflare share (stable)", "≈7%", fmt.Sprintf("%.1f%% → %.1f%%", pre.Share(13335), end.Share(13335)))
		x.add("Sedo share Mar 8 → May 25", "3.1% → ≈0.05%",
			fmt.Sprintf("%.2f%% → %.2f%%", at(fig4, asnPointDay, world.AmazonStmtDay).Share(47846), end.Share(47846)))
	},
}, {
	ID: "fig5", Section: "Fig 5 / §3.3", Source: FromStore,
	Title:      "Figure 5: sanctioned-domain NS composition (2022)",
	Collection: "figures", Number: 5, APITitle: "Sanctioned-domain NS composition (2022 dense window)",
	CSV: "fig5_sanctioned.csv", From: simtime.DenseWindowStart,
	Value: func(_ *Study, src Series) any { return src.Fig5() },
	text:  drawn,
	compare: func(s *Study, x *index) {
		fig5 := s.Fig5()
		feb24, mar4 := at(fig5, pointDay, simtime.ConflictStart), at(fig5, pointDay, world.SanctionedNSMoved)
		x.add("sanctioned partial NS on Feb 24", "34.0%", pctf(feb24.PartPct()))
		x.add("sanctioned non-RU NS on Feb 24", "5.2%", pctf(feb24.NonPct()))
		x.add("sanctioned fully-RU NS by Mar 4", "93.8%", pctf(mar4.FullPct()))
		hosted := s.Analyzer.HostingCompositionSeries([]simtime.Day{simtime.ConflictStart.Add(-7), simtime.StudyEnd}, s.sanctionedFilter())
		x.label = "§3.3"
		x.add("sanctioned fully RU-hosted pre-conflict", "101 of 107", fmt.Sprintf("%d of %d", hosted[0].Full, hosted[0].Total))
		x.add("sanctioned fully RU-hosted by May 25", "104 of 107", fmt.Sprintf("%d of %d", hosted[1].Full, hosted[1].Total))
	},
}, {
	ID: "reachability", Section: "scenario reachability", Source: FromStore, ShapeOnly: true,
	Title:      "NS reachability from the measurement vantage",
	Collection: "figures", APITitle: "Name-server reachability under routing scenario",
	Value: func(_ *Study, src Series) any { return src.Reachability() },
	text: func(s *Study, e *Experiment, w *errWriter) {
		if !scenarioDrawn(s, e, w) {
			return
		}
		reach := s.Reachability()
		if len(reach) == 0 {
			return
		}
		last := reach[len(reach)-1]
		t := &report.Table{
			Title:   fmt.Sprintf("Scenario reachability by NS country on %s", last.Day),
			Headers: []string{"country", "domains", "reachable", "rate"},
		}
		for _, c := range last.Countries {
			rate := 0.0
			if c.Total > 0 {
				rate = 100 * float64(c.Reachable) / float64(c.Total)
			}
			t.AddRow(c.Country, fmt.Sprint(c.Total), fmt.Sprint(c.Reachable), report.Pct(rate))
		}
		w.block(t)
	},
}, {
	ID: "latency", Section: "scenario latency", Source: FromStore, ShapeOnly: true,
	Title:      "simulated resolution latency (best NS path)",
	Collection: "figures", APITitle: "Simulated resolution latency (best NS path)",
	Value: func(_ *Study, src Series) any { return src.RouteLatency() },
	text:  func(s *Study, e *Experiment, w *errWriter) { scenarioDrawn(s, e, w) },
}, {
	ID: "movement", Section: "Fig 6", Source: FromStore,
	Title: "Figures 6-7 / §3.4: domain movement by provider (baseline day → 2022-05-25)",
	text: func(s *Study, e *Experiment, w *errWriter) {
		t := &report.Table{
			Title:   e.Title,
			Headers: []string{"provider", "baseline", "original", "remained", "relocated", "gone", "new-reg in", "moved in", "top dest"},
		}
		for i, p := range paperMovements {
			m := s.paperMovement(i)
			dest := "-"
			if d := m.TopDestinations(1); len(d) > 0 {
				dest = s.asnLabel(d[0])
			}
			t.AddRow(p.name, p.from.String(), fmt.Sprint(m.Original),
				fmt.Sprintf("%d (%.1f%%)", m.Remained, m.RemainedPct()),
				fmt.Sprintf("%d (%.1f%%)", m.RelocatedOut, m.RelocatedPct()),
				fmt.Sprint(m.Gone), fmt.Sprint(m.NewlyRegistered), fmt.Sprint(m.RelocatedIn), dest)
		}
		w.block(t)
		for i, p := range paperMovements {
			if p.flow == "" {
				continue
			}
			m := s.paperMovement(i)
			flow := &report.Flows{Title: p.flow, Source: fmt.Sprintf("AS%d on %s", p.asn, p.from), Total: m.Original}
			flow.Add("remained", m.Remained)
			for _, dest := range m.TopDestinations(4) {
				flow.Add(s.asnLabel(dest), m.OutDestinations[dest])
			}
			if m.Gone > 0 {
				flow.Add("left the zone", m.Gone)
			}
			w.block(flow)
		}
	},
	compare: func(s *Study, x *index) {
		scale := s.Scale()
		am := s.paperMovement(0)
		x.add("Amazon set on 2022-03-08", "≈58k", report.Count(am.Original, scale))
		x.add("remained in AS16509 by May 25", "43%", pctf(am.RemainedPct()))
		x.add("incoming (new-reg + relocated-in)", "574 + 988", fmt.Sprintf("%d + %d (scaled)", am.NewlyRegistered, am.RelocatedIn))
		sd := s.paperMovement(1)
		x.label = "Fig 7"
		x.add("Sedo set on 2022-03-08", "164k", report.Count(sd.Original, scale))
		x.add("relocated out of AS47846", "98%", pctf(sd.RelocatedPct()))
		x.add("remained", "1.6%", pctf(sd.RemainedPct()))
		if dests := sd.TopDestinations(1); len(dests) > 0 {
			name := fmt.Sprintf("AS%d", dests[0])
			if p, ok := s.World.ProviderByASN(dests[0]); ok {
				name = fmt.Sprintf("%s (AS%d)", p.Org, dests[0])
			}
			x.add("top destination", "Serverel (NL)", name)
		}
		cf := s.paperMovement(2)
		x.label = "§3.4 Cloudflare"
		x.add("remained in AS13335", "94%", pctf(cf.RemainedPct()))
		x.add("newly appeared", "34k", report.Count(cf.NewlyRegistered+cf.RelocatedIn, scale))
		gg := s.paperMovement(3)
		x.label = "§3.4 Google"
		x.add("relocated out of AS15169", "57.1%", pctf(gg.RelocatedPct()))
		if gg.RelocatedOut > 0 {
			x.add("of which to AS396982 (intra-Google)", "75.2%", pctf(100*float64(gg.OutDestinations[396982])/float64(gg.RelocatedOut)))
		}
	},
}, {
	ID: "table1", Section: "Tab 1", Source: FromWorld,
	Title:      "Table 1: issuing activity of CAs per period (counts at simulation scale)",
	Collection: "tables", Number: 1, APITitle: "Certificate issuance by period",
	Value: func(s *Study, _ Series) any { return s.Table1() },
	text: func(s *Study, e *Experiment, w *errWriter) {
		t := &report.Table{Title: e.Title, Headers: []string{"period", "days", "total", "certs/day (paper scale)", "top issuers"}}
		for _, p := range s.Table1() {
			var top []string
			for _, ic := range p.Issuers[:min(3, len(p.Issuers))] {
				top = append(top, fmt.Sprintf("%s %.2f%%", ic.Org, p.Share(ic.Org)))
			}
			t.AddRow(p.Period.String(), fmt.Sprint(p.Days), fmt.Sprint(p.Total),
				fmt.Sprintf("%.0f", p.PerDay()*float64(s.Scale())), strings.Join(top, ", "))
		}
		w.block(t)
	},
	compare: func(s *Study, x *index) {
		if t1 := s.Table1(); len(t1) == 3 {
			x.add("Let's Encrypt share pre-conflict", "91.58%", pctf(t1[0].Share(pki.LetsEncrypt)))
			x.add("Let's Encrypt share pre-sanctions", "98.06%", pctf(t1[1].Share(pki.LetsEncrypt)))
			x.add("Let's Encrypt share post-sanctions", "99.23%", pctf(t1[2].Share(pki.LetsEncrypt)))
			x.add("post-sanctions top-3", "Let's Encrypt, GlobalSign, Google", topOrgs(t1[2], 3))
		}
	},
}, {
	ID: "issuance", Section: "§4", Source: FromWorld,
	compare: func(s *Study, x *index) {
		if t1 := s.Table1(); len(t1) == 3 {
			scale := float64(s.Scale())
			x.add("certs/day pre-conflict", "≈130k", fmt.Sprintf("≈%.0fk (paper scale)", t1[0].PerDay()*scale/1000))
			x.add("certs/day post-sanctions", "≈115k", fmt.Sprintf("≈%.0fk (paper scale)", t1[2].PerDay()*scale/1000))
		}
	},
}, {
	ID: "fig8", Section: "Fig 8", Source: FromWorld,
	Title:      "Figure 8: CA issuance-activity timelines (Jan 1 – May 15, 2022)",
	Collection: "figures", Number: 8, APITitle: "Top-10 CA issuance timelines",
	Value: func(s *Study, _ Series) any { return s.Fig8() },
	text: func(s *Study, e *Experiment, w *errWriter) {
		dot := &report.DotTimeline{
			Title: e.Title, From: simtime.CTWindowStart, To: simtime.CTWindowEnd, Step: 2,
			Marks: map[simtime.Day]byte{simtime.ConflictStart: '|', simtime.SanctionsInEffect: '|'},
		}
		for _, tl := range s.Fig8() {
			dot.Rows = append(dot.Rows, report.DotRow{Name: tl.Org, Active: tl.ActiveDays})
		}
		w.block(dot)
	},
	compare: func(s *Study, x *index) {
		timelines := s.Fig8()
		stopped, lateWindow := 0, simtime.Date(2022, 4, 15)
		for _, tl := range timelines {
			late := 0
			for d := range tl.ActiveDays {
				if d >= lateWindow {
					late++
				}
			}
			if late <= 2 {
				stopped++
			}
		}
		x.add("top-10 CAs that stopped issuing", "6 of 10", fmt.Sprintf("%d of %d", stopped, len(timelines)))
	},
}, {
	ID: "table2", Section: "Tab 2", Source: FromWorld,
	Title:      "Table 2: revocation activity (top-5 revoking CAs)",
	Collection: "tables", Number: 2, APITitle: "Revocations by top-5 revoking CAs",
	Value: func(s *Study, _ Series) any { return s.Table2() },
	text: func(s *Study, e *Experiment, w *errWriter) {
		t := &report.Table{Title: e.Title, Headers: []string{"issuer", "issued", "revoked", "rate", "sanc issued", "sanc revoked", "sanc rate"}}
		for _, r := range s.Table2() {
			t.AddRow(r.Org, fmt.Sprint(r.Issued), fmt.Sprint(r.Revoked), report.Pct(r.RevokedPct()),
				fmt.Sprint(r.SancIssued), fmt.Sprint(r.SancRevoked), report.Pct(r.SancRevokedPct()))
		}
		w.block(t)
	},
	compare: func(s *Study, x *index) {
		for _, r := range s.Table2() {
			switch r.Org {
			case pki.DigiCert, pki.Sectigo:
				x.add(r.Org+" sanctioned revocation rate", "100%", pctf(r.SancRevokedPct()))
			case pki.LetsEncrypt:
				x.add("Let's Encrypt revocation rate (overall / sanctioned)", "0.06% / 1.19%",
					fmt.Sprintf("%.2f%% / %.2f%%", r.RevokedPct(), r.SancRevokedPct()))
			}
		}
	},
}, {
	ID: "russianCA", Section: "§4.3", Source: FromWorld,
	Title: "§4.3 Russian Trusted Root CA",
	text: func(s *Study, e *Experiment, w *errWriter) {
		rca := s.russianCA()
		fmt.Fprintf(w, "%s (from %d scan days):\n", e.Title, rca.days)
		fmt.Fprintf(w, "  unique certificates observed: %d (paper: 170)\n", rca.UniqueCerts)
		fmt.Fprintf(w, "  .ru domains secured: %d (paper: 130); .рф: %d (paper: 2); other TLDs: %d\n", rca.RuDomains, rca.RFDomains, rca.OtherTLDNames)
		fmt.Fprintf(w, "  sanctioned-domain certs: %d covering %d domains (%.0f%% of the list)\n",
			rca.SanctionedCerts, rca.SanctionedDomains, 100*float64(rca.SanctionedDomains)/107)
		fmt.Fprintf(w, "  backdrop certificates from other CAs in the same scans: %d\n\n", rca.BackdropCerts)
	},
	compare: func(s *Study, x *index) {
		rca := s.RussianCA()
		x.add("unique Russian Trusted Root CA certs in scans", "170", fmt.Sprint(rca.UniqueCerts))
		x.add("distinct .ru / .рф domains secured", "130 / 2", fmt.Sprintf("%d / %d", rca.RuDomains, rca.RFDomains))
		x.add("certs securing sanctioned domains", "36 (34% of list)",
			fmt.Sprintf("%d (%.0f%% of list)", rca.SanctionedCerts, 100*float64(rca.SanctionedDomains)/107))
		logged := s.World.CTLog.Scan(0, s.World.CTLog.Size(), func(c *pki.Certificate) bool {
			return c.RootOrg == pki.RussianTrustedRootCA
		})
		x.add("Russian CA certs in CT logs", "0 (does not log)", fmt.Sprint(len(logged)))
	},
}, {
	// §6: "virtually all of the impacted sites quickly found new providers".
	ID: "relocation", Section: "extension: relocation latency", Source: FromStore, ShapeOnly: true,
	Title: "Extension: relocation latency after provider exits (days to first new ASN)",
	text: func(s *Study, e *Experiment, w *errWriter) {
		t := &report.Table{Title: e.Title, Headers: []string{"provider", "event", "relocated", "median", "p90", "still there", "gone"}}
		for _, i := range []int{1, 0, 3} { // the providers that left: Sedo, Amazon, Google
			p := paperMovements[i]
			rep := s.Analyzer.RelocationLatency(p.asn, p.from, s.lastSweep())
			med, _ := rep.Median()
			p90, _ := rep.Percentile(90)
			t.AddRow(p.name, p.from.String(), fmt.Sprint(rep.Relocated), fmt.Sprintf("%d d", med), fmt.Sprintf("%d d", p90),
				fmt.Sprint(rep.StillThere), fmt.Sprint(rep.Gone))
		}
		w.block(t)
	},
}, {
	ID: "mail", Section: "extension: mail", Source: FromStore, ShapeOnly: true,
	Title: "Extension: mail operators of .ru/.рф domains (Liu et al. methodology)",
	text: func(s *Study, e *Experiment, w *errWriter) {
		if !s.Opts.CollectMX {
			return
		}
		mail := s.Mail()
		if len(mail) == 0 || mail[len(mail)-1].WithMail == 0 {
			return
		}
		last := mail[len(mail)-1]
		t := &report.Table{Title: e.Title, Headers: []string{"mail zone", "share of domains with MX (2022-05-25)"}}
		for _, z := range analysis.TopMailZones(mail, 6) {
			t.AddRow(z, report.Pct(last.Share(z)))
		}
		w.block(t)
	},
}, {
	// The hosting and mail markets read the store, the CA market the CT log.
	ID: "concentration", Section: "extension: HHI", Source: FromStore, ShapeOnly: true,
	Title: "Extension: market concentration (HHI; 1.0 = monopoly)",
	text: func(s *Study, e *Experiment, w *errWriter) {
		hosting, ca, mail := s.Concentration()
		t := &report.Table{Title: e.Title, Headers: []string{"market", "point", "HHI", "top-1 share", "participants"}}
		row := func(market, point string, p analysis.ConcentrationPoint) {
			t.AddRow(market, point, fmt.Sprintf("%.3f", p.HHI), report.Pct(p.Top1Share), fmt.Sprint(p.Participants))
		}
		for _, p := range hosting {
			row("hosting (ASNs)", p.Day.String(), p)
		}
		for i, p := range ca {
			row("certificates (CAs)", []string{"pre-conflict", "pre-sanctions", "post-sanctions"}[i], p)
		}
		for _, p := range mail {
			row("mail (operators)", p.Day.String(), p)
		}
		w.block(t)
	},
}}

// Experiments returns the study's experiments in report order.
func Experiments() []Experiment {
	return append([]Experiment(nil), experiments...)
}

// paperMovements are the four §3.4 provider exits the paper follows, in
// the order of the report's movement table; flow titles the two that
// Figures 6 and 7 draw.
var paperMovements = []struct {
	name, flow string
	asn        netsim.ASN
	from       simtime.Day
}{
	{"Amazon AS16509", "Figure 6: movement of Russian domains in Amazon's AS16509", 16509, world.AmazonStmtDay},
	{"Sedo AS47846", "Figure 7: movement of Russian domains in Sedo's AS47846", 47846, world.SedoStmtDay.Add(-1)},
	{"Cloudflare AS13335", "", 13335, world.CloudflareStmtDay},
	{"Google AS15169", "", 15169, world.GoogleStmtDay},
}

// drawn writes a series figure's chart.
func drawn(s *Study, e *Experiment, w *errWriter) {
	w.block(e.plot(e.Value(s, s)).chart(e.Title, s.Store.MissingSweeps()))
}

// scenarioDrawn writes a routing-scenario figure's chart and reports
// whether it did: only a study with a scenario has one, so scenario-less
// reports keep their bytes.
func scenarioDrawn(s *Study, e *Experiment, w *errWriter) bool {
	if s.Analyzer.Routes == nil {
		return false
	}
	title := fmt.Sprintf("Scenario %q: %s", s.Opts.Scenario, e.Title)
	w.block(e.plot(e.Value(s, s)).chart(title, s.Store.MissingSweeps()))
	return true
}

// plot is a series figure laid out once for both of its encodings: the
// chart draws the named columns, the CSV writes the headed ones.
type plot struct {
	yLabel string
	yMax   float64
	cols   []column
	days   []simtime.Day
	rows   [][]float64
}

// column is one quantity of a series figure: a chart line (name and
// mark), a CSV column (header, written with format, default %.4f), or
// both.
type column struct {
	name   string
	mark   byte
	header string
	format string
}

func (p *plot) add(day simtime.Day, vals ...float64) {
	p.days = append(p.days, day)
	p.rows = append(p.rows, vals)
}

// plot lays out the value of a series figure.
func (e *Experiment) plot(v any) *plot {
	p := &plot{yLabel: "% of domains", yMax: 100}
	switch v := v.(type) {
	case []analysis.Point:
		p.cols = []column{
			{name: "Full Russian", mark: 'F', header: "full_pct"},
			{name: "Part Russian", mark: 'P', header: "part_pct"},
			{name: "Non Russian", mark: 'N', header: "non_pct"},
			{header: "total", format: "%.0f"},
			{header: "interpolated", format: "%.0f"},
		}
		for _, pt := range v {
			interp := 0.0
			if pt.Interpolated {
				interp = 1
			}
			p.add(pt.Day, pt.FullPct(), pt.PartPct(), pt.NonPct(), float64(pt.Total), interp)
		}
	case []analysis.TLDSharePoint:
		top := analysis.TopTLDs(v, 5)
		for i, tld := range top {
			p.cols = append(p.cols, column{name: "." + tld, mark: "rcpon"[i], header: tld})
		}
		for _, pt := range v {
			vals := make([]float64, len(top))
			for i, tld := range top {
				vals[i] = pt.Share(tld)
			}
			p.add(pt.Day, vals...)
		}
	case []analysis.ASNSharePoint:
		p.yMax = 20
		for _, n := range e.Plotted {
			p.cols = append(p.cols, column{name: n.Name, mark: n.Mark, header: fmt.Sprintf("AS%d", n.ASN)})
		}
		for _, pt := range v {
			vals := make([]float64, len(e.Plotted))
			for i, n := range e.Plotted {
				vals[i] = pt.Share(n.ASN)
			}
			p.add(pt.Day, vals...)
		}
	case []analysis.ReachPoint:
		p.cols = []column{{name: "reachable", mark: 'R'}}
		for _, pt := range v {
			pct := 100.0
			if pt.Total > 0 {
				pct = 100 * float64(pt.Reachable) / float64(pt.Total)
			}
			p.add(pt.Day, pct)
		}
	case []analysis.RouteLatencyPoint:
		p.yLabel, p.yMax = "ms", 1
		p.cols = []column{{name: "p50", mark: '5'}, {name: "p99", mark: '9'}}
		for _, pt := range v {
			p50, p99 := float64(pt.P50.Microseconds())/1000, float64(pt.P99.Microseconds())/1000
			p.yMax = max(p.yMax, p99)
			p.add(pt.Day, p50, p99)
		}
	default:
		panic(fmt.Sprintf("core: %s has no series layout for %T", e.ID, v))
	}
	return p
}

// chart draws the named columns; gaps are the days no sweep covered.
func (p *plot) chart(title string, gaps []simtime.Day) *report.Chart {
	c := &report.Chart{Title: title, YLabel: p.yLabel, YMax: p.yMax, Days: p.days, Gaps: gaps}
	for i, col := range p.cols {
		if col.name == "" {
			continue
		}
		ser := report.Series{Name: col.name, Mark: col.mark, Points: make(map[simtime.Day]float64, len(p.days))}
		for j, d := range p.days {
			ser.Points[d] = p.rows[j][i]
		}
		c.Series = append(c.Series, ser)
	}
	return c
}

// csv writes the day and the headed columns.
func (p *plot) csv(w io.Writer) error {
	header := []string{"day"}
	for _, col := range p.cols {
		if col.header != "" {
			header = append(header, col.header)
		}
	}
	rows := make([][]string, len(p.days))
	for j, d := range p.days {
		rows[j] = []string{d.String()}
		for i, col := range p.cols {
			if col.header == "" {
				continue
			}
			format := col.format
			if format == "" {
				format = "%.4f"
			}
			rows[j] = append(rows[j], fmt.Sprintf(format, p.rows[j][i]))
		}
	}
	return report.CSV(w, header, rows)
}

// index collects the comparison rows; label names the rows that follow
// (the experiment's Section until its compare sets another).
type index struct {
	label string
	rows  []Comparison
}

func (x *index) add(metric, paper, measured string) {
	x.rows = append(x.rows, Comparison{Experiment: x.label, Metric: metric, Paper: paper, Measured: measured})
}

// ErrNoSweeps is returned by the figure-and-table entry points when the
// study's store holds no sweeps: nothing was collected, loaded or
// resumed, so there is no series to index into.
var ErrNoSweeps = fmt.Errorf("core: study has no sweeps (run Collect, or load a store or checkpoint first)")

// Comparisons computes the paper-vs-measured experiment index across all
// figures and tables (read-only). It fails with ErrNoSweeps when the
// store is empty.
func (s *Study) Comparisons() ([]Comparison, error) {
	if len(s.keyDays()) == 0 {
		return nil, ErrNoSweeps
	}
	return memoized(s, "comparisons", func() []Comparison {
		var x index
		for _, e := range experiments {
			if e.compare != nil {
				x.label = e.Section
				e.compare(s, &x)
			}
		}
		return x.rows
	}), nil
}

// RenderAll writes every figure and table, with charts, to w. It fails
// with ErrNoSweeps when the store is empty.
func (s *Study) RenderAll(w io.Writer) error {
	comps, err := s.Comparisons()
	if err != nil {
		return err
	}
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "Where .ru? — reproduction report (scale 1:%d, %d domains, %d sweeps)\n\n",
		s.Scale(), s.World.NumDomains(), len(s.Sweeps))
	for i := range experiments {
		if e := &experiments[i]; e.text != nil {
			e.text(s, e, ew)
		}
	}
	idx := &report.Table{
		Title:   "Paper vs measured (experiment index)",
		Headers: []string{"experiment", "metric", "paper", "measured"},
	}
	for _, c := range comps {
		idx.AddRow(c.Experiment, c.Metric, c.Paper, c.Measured)
	}
	idx.WriteTo(ew)
	return ew.err
}

// ExperimentsMarkdown writes the EXPERIMENTS.md content: the per-
// experiment paper-vs-measured record for the current run.
func (s *Study) ExperimentsMarkdown(w io.Writer) error {
	comps, err := s.Comparisons()
	if err != nil {
		return err
	}
	ew := &errWriter{w: w}
	fmt.Fprintf(ew, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(ew, "Generated by `go run ./cmd/whereru -markdown EXPERIMENTS.md` from a deterministic run: seed %d, scale 1:%d\n",
		s.Opts.World.Seed, s.Scale())
	fmt.Fprintf(ew, "(%d simulated domains ever registered; absolute counts below are at\n", s.World.NumDomains())
	fmt.Fprintf(ew, "simulation scale unless marked otherwise), %d DNS sweeps %s..%s,\n",
		len(s.Sweeps), simtime.StudyStart, simtime.StudyEnd)
	fmt.Fprintf(ew, "weekly TLS scans %s..%s.\n\n", world.RussianCAStartDay, simtime.CTWindowEnd)
	fmt.Fprintf(ew, "The reproduction targets the paper's *shape* — who wins, directions of\n")
	fmt.Fprintf(ew, "change, where steps fall — not its absolute testbed counts; see\n")
	fmt.Fprintf(ew, "DESIGN.md §1 for the substitution rationale and deviations.\n\n")
	group := ""
	for _, c := range comps {
		if c.Experiment != group {
			group = c.Experiment
			fmt.Fprintf(ew, "\n## %s\n\n", group)
			fmt.Fprintf(ew, "| metric | paper | measured |\n|---|---|---|\n")
		}
		fmt.Fprintf(ew, "| %s | %s | %s |\n", c.Metric, c.Paper, c.Measured)
	}
	fmt.Fprintf(ew, "\n## Known level deviations (shape preserved)\n\n")
	fmt.Fprintf(ew, "- Figure 3 levels: the simulated `.com` share runs high (≈31%% vs 24.7%%)\n")
	fmt.Fprintf(ew, "  and `.ru`/`.pro` run a few points low; growth directions, growth\n")
	fmt.Fprintf(ew, "  magnitudes and the rank order (ru > com > pro > org > net) match.\n")
	fmt.Fprintf(ew, "- Figure 2 levels: fully-Russian TLD dependency sits ≈6 points below the\n")
	fmt.Fprintf(ew, "  paper's curve; the published net changes (-6.3 full / +7.9 partial) and\n")
	fmt.Fprintf(ew, "  the tiny conflict-time step are reproduced.\n")
	fmt.Fprintf(ew, "- Table 2 sanctioned issuance counts are scaled (Let's Encrypt's 16k\n")
	fmt.Fprintf(ew, "  modeled at 1:10 before world scaling); revocation *rates* — the table's\n")
	fmt.Fprintf(ew, "  signal — are preserved, including 100%% for DigiCert and Sectigo.\n")
	fmt.Fprintf(ew, "- The 2021-03-22 measurement outage (paper footnote 8) is supported as a\n")
	fmt.Fprintf(ew, "  scheduled fault-profile window (`Options.SimulateOutage`, applied to the\n")
	fmt.Fprintf(ew, "  registry TLD servers via `dns.FaultTransport`) but not enabled in the\n")
	fmt.Fprintf(ew, "  default schedule. Injected packet loss (`Options.Loss`) is likewise\n")
	fmt.Fprintf(ew, "  off by default; when enabled, per-sweep retry/recovery counts are\n")
	fmt.Fprintf(ew, "  recorded in `SweepStats`.\n")
	return ew.err
}

// ExportCSV writes the series of every experiment with a CSV name, each
// through a file the create callback opens.
func (s *Study) ExportCSV(create func(name string) (io.WriteCloser, error)) error {
	for i := range experiments {
		e := &experiments[i]
		if e.CSV == "" {
			continue
		}
		f, err := create(e.CSV)
		if err != nil {
			return err
		}
		err = e.plot(e.Value(s, s)).csv(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// errWriter keeps the first error a write returns and refuses every write
// after it, so a render writes its blocks unchecked and reports once.
type errWriter struct {
	w   io.Writer
	err error
}

func (e *errWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return 0, e.err
	}
	n, err := e.w.Write(p)
	e.err = err
	return n, err
}

// block writes one report block and the blank line after it.
func (e *errWriter) block(b io.WriterTo) {
	b.WriteTo(e)
	fmt.Fprintln(e)
}

func pctf(v float64) string { return fmt.Sprintf("%.1f%%", v) }

func firstLast[T any](s []T) (first, last T) {
	if len(s) == 0 {
		return
	}
	return s[0], s[len(s)-1]
}

// at returns the point of series measured at (or carried into) day: the
// last one on or before it, or the first when none is. dayOf reads a
// point's day.
func at[P any](series []P, dayOf func(P) simtime.Day, day simtime.Day) P {
	var best P
	for i, p := range series {
		if i == 0 || dayOf(p) <= day {
			best = p
		}
	}
	return best
}

func pointDay(p analysis.Point) simtime.Day            { return p.Day }
func asnPointDay(p analysis.ASNSharePoint) simtime.Day { return p.Day }

// asnLabel names a network "Org ASn" when the world knows its provider,
// "ASn" otherwise.
func (s *Study) asnLabel(asn netsim.ASN) string {
	if p, ok := s.World.ProviderByASN(asn); ok {
		return fmt.Sprintf("%s AS%d", p.Org, asn)
	}
	return fmt.Sprintf("AS%d", asn)
}

func topOrgs(p analysis.PeriodIssuance, k int) string {
	names := make([]string, 0, k)
	for i := 0; i < k && i < len(p.Issuers); i++ {
		names = append(names, p.Issuers[i].Org)
	}
	return fmt.Sprintf("%v", names)
}

// sanctionedFilter selects the sanctioned domains.
func (s *Study) sanctionedFilter() analysis.Filter {
	sanc := s.World.Sanctions
	return func(domain string) bool { return sanc.ContainsEver(domain) }
}

// keyDays returns the standard day axis for longitudinal series: every
// collected sweep plus every scheduled-but-missed day, so collection
// gaps appear as explicit carry-forward points (flagged Interpolated by
// the accumulators) instead of silently vanishing from the axis. It reads
// the sweep days from the store, under its lock, rather than s.Sweeps: a
// followed server computes figures while ApplySweep appends to both.
func (s *Study) keyDays() []simtime.Day {
	return mergeDays(s.Store.Sweeps(), s.Store.MissingSweeps())
}

// lastSweep is the last day the store swept: what a partial study can
// answer as of (a dropped day after it measured nothing). With nothing
// swept it is the study's end day.
func (s *Study) lastSweep() simtime.Day {
	if days := s.Store.Sweeps(); len(days) > 0 {
		return days[len(days)-1]
	}
	return simtime.StudyEnd
}

// mergeDays merges two sorted day lists, dropping duplicates.
func mergeDays(a, b []simtime.Day) []simtime.Day {
	if len(b) == 0 {
		return a
	}
	out := make([]simtime.Day, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// denseDays returns the part of keyDays inside the 2022 dense window, the
// axis of Figures 4 and 5.
func (s *Study) denseDays() []simtime.Day {
	days := s.keyDays()
	for len(days) > 0 && days[0] < simtime.DenseWindowStart {
		days = days[1:]
	}
	return days
}

// Fig1 computes the Figure 1 series (NS-infrastructure composition). Read-only.
func (s *Study) Fig1() []analysis.Point {
	return memoized(s, "fig1", func() []analysis.Point { return s.Analyzer.NSCompositionSeries(s.keyDays(), nil) })
}

// Fig2 computes the Figure 2 series (TLD-dependency composition). Read-only.
func (s *Study) Fig2() []analysis.Point {
	return memoized(s, "fig2", func() []analysis.Point { return s.Analyzer.TLDDependencySeries(s.keyDays(), nil) })
}

// Fig3 computes the Figure 3 series (per-TLD shares). Read-only.
func (s *Study) Fig3() []analysis.TLDSharePoint {
	return memoized(s, "fig3", func() []analysis.TLDSharePoint { return s.Analyzer.TLDShareSeries(s.keyDays(), nil) })
}

// Fig4 computes the Figure 4 series (hosting ASN shares) over the 2022
// dense window. Read-only.
func (s *Study) Fig4() []analysis.ASNSharePoint {
	return memoized(s, "fig4", func() []analysis.ASNSharePoint { return s.Analyzer.ASNShareSeries(s.denseDays(), nil) })
}

// Fig5 computes the Figure 5 series (sanctioned-domain NS composition)
// over the 2022 dense window. Read-only.
func (s *Study) Fig5() []analysis.Point {
	return memoized(s, "fig5", func() []analysis.Point {
		return s.Analyzer.NSCompositionSeries(s.denseDays(), s.sanctionedFilter())
	})
}

// SweepCounts computes the per-sweep measurement counts behind
// /api/v1/sweeps, over the store's sweep days. Read-only.
func (s *Study) SweepCounts() []analysis.SweepCount {
	return memoized(s, "sweeps", func() []analysis.SweepCount { return s.Analyzer.SweepCountSeries(s.Store.Sweeps(), nil) })
}

// Reachability computes the scenario reachability series (per-day
// name-server reachability under the AS-level route tables) over the
// standard day axis. Without an active scenario every measured domain is
// reachable. Read-only.
func (s *Study) Reachability() []analysis.ReachPoint {
	return memoized(s, "reachability", func() []analysis.ReachPoint { return s.Analyzer.ReachabilitySeries(s.keyDays(), nil) })
}

// RouteLatency computes the simulated resolution-latency series under
// the AS-level route tables over the standard day axis. Read-only.
func (s *Study) RouteLatency() []analysis.RouteLatencyPoint {
	return memoized(s, "latency", func() []analysis.RouteLatencyPoint { return s.Analyzer.RouteLatencySeries(s.keyDays(), nil) })
}

// Movement runs the §3.4 movement analysis for one provider ASN, from
// from to the store's last sweep. It is not memoized: its keys are
// unbounded (whereru-serve's response cache holds the bodies); the
// paper's four go through paperMovement.
func (s *Study) Movement(asn netsim.ASN, from simtime.Day) analysis.Movement {
	return s.Analyzer.MovementAnalysis(asn, from, s.lastSweep(), s.World.Registries)
}

// paperMovement returns the movement of paperMovements[i]. Read-only.
func (s *Study) paperMovement(i int) analysis.Movement {
	p := paperMovements[i]
	return memoized(s, p, func() analysis.Movement { return s.Movement(p.asn, p.from) })
}

// Table1 computes the per-period issuance breakdown. Read-only.
func (s *Study) Table1() []analysis.PeriodIssuance {
	return worldMemoized(s, "table1", func() []analysis.PeriodIssuance { return analysis.IssuanceByPeriod(s.World.CTLog) })
}

// Fig8 computes the top-10 CA issuance timelines. Read-only.
func (s *Study) Fig8() []analysis.Timeline {
	return worldMemoized(s, "fig8", func() []analysis.Timeline { return analysis.IssuanceTimelines(s.World.CTLog, 10) })
}

// Table2 computes the revocation statistics (top-5 revokers). Read-only.
func (s *Study) Table2() []analysis.RevocationRow {
	return worldMemoized(s, "table2", func() []analysis.RevocationRow {
		return analysis.RevocationStats(s.World.CTLog, s.World.Certs, s.World.Sanctions, 5)
	})
}

// RussianCA computes the §4.3 report over the world's TLS endpoints,
// scanned weekly from world.RussianCAStartDay to simtime.CTWindowEnd, as
// Table1 reads the world's CT log. Read-only.
func (s *Study) RussianCA() analysis.RussianCAReport { return s.russianCA().RussianCAReport }

// scannedCA is the §4.3 report with the number of scan days behind it.
type scannedCA struct {
	analysis.RussianCAReport
	days int
}

func (s *Study) russianCA() scannedCA {
	return worldMemoized(s, "russianCA", func() scannedCA {
		a := scan.NewArchive()
		for d := world.RussianCAStartDay; d <= simtime.CTWindowEnd; d = d.Add(7) {
			a.Record(d, s.World.Scanner.Sweep(d))
		}
		return scannedCA{analysis.RussianCAImpact(a, s.World.Sanctions), len(a.Days())}
	})
}

// Hosting computes the §3.1 hosting-composition series. Read-only.
func (s *Study) Hosting() []analysis.Point {
	return memoized(s, "hosting", func() []analysis.Point { return s.Analyzer.HostingCompositionSeries(s.keyDays(), nil) })
}

// Mail computes the mail-operator share series (extension; requires
// CollectMX). Read-only.
func (s *Study) Mail() []analysis.MailSharePoint {
	return memoized(s, "mail", func() []analysis.MailSharePoint { return s.Analyzer.MailProviderSeries(s.keyDays(), nil) })
}

// Concentration computes HHI series for the hosting and CA markets, plus
// mail when collected (extension). Read-only.
func (s *Study) Concentration() (hosting, ca, mail []analysis.ConcentrationPoint) {
	c := memoized(s, "concentration", func() (c [3][]analysis.ConcentrationPoint) {
		ends := []simtime.Day{simtime.StudyStart, simtime.ConflictStart.Add(-1), simtime.StudyEnd}
		c[0] = s.Analyzer.HostingConcentration(ends, nil)
		c[1] = analysis.CAConcentration(s.World.CTLog)
		if s.Opts.CollectMX {
			c[2] = s.Analyzer.MailConcentration(ends, nil)
		}
		return c
	})
	return c[0], c[1], c[2]
}
