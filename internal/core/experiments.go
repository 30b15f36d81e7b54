package core

import (
	"fmt"
	"io"

	"whereru/internal/analysis"
	"whereru/internal/netsim"
	"whereru/internal/pki"
	"whereru/internal/report"
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

// Fig1 computes the Figure 1 series (NS-infrastructure composition).
func (s *Study) Fig1() []analysis.Point {
	return s.Analyzer.NSCompositionSeries(s.keyDays(), nil)
}

// Fig2 computes the Figure 2 series (TLD-dependency composition).
func (s *Study) Fig2() []analysis.Point {
	return s.Analyzer.TLDDependencySeries(s.keyDays(), nil)
}

// Fig3 computes the Figure 3 series (per-TLD shares).
func (s *Study) Fig3() []analysis.TLDSharePoint {
	return s.Analyzer.TLDShareSeries(s.keyDays(), nil)
}

// ProviderSpec names one of the hosting networks Figure 4 plots.
type ProviderSpec struct {
	ASN  netsim.ASN
	Name string
}

// Fig4Providers returns the networks Figure 4 plots, in plot order. The
// text chart and the serve layer's JSON share this list, so the two
// renderings of the figure label the same series.
func Fig4Providers() []ProviderSpec {
	return append([]ProviderSpec(nil), fig4ASNs...)
}

// fig4ASNs is the set of networks Figure 4 plots.
var fig4ASNs = []ProviderSpec{
	{16509, "Amazon (US)"},
	{47846, "Sedo (DE)"},
	{13335, "Cloudflare (US)"},
	{197695, "REG.RU"},
	{48287, "RU-CENTER"},
	{9123, "Timeweb (RU)"},
	{198610, "Beget (RU)"},
	{29802, "Serverel (NL)"},
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

// Fig4 computes the Figure 4 series (hosting ASN shares) over the 2022
// dense window.
func (s *Study) Fig4() []analysis.ASNSharePoint {
	return s.Analyzer.ASNShareSeries(s.denseDays(), nil)
}

// Fig5 computes the Figure 5 series (sanctioned-domain NS composition)
// over the 2022 dense window.
func (s *Study) Fig5() []analysis.Point {
	return s.Analyzer.NSCompositionSeries(s.denseDays(), s.sanctionedFilter())
}

// SweepCounts computes the per-sweep measurement counts behind
// /api/v1/sweeps, over the store's sweep days.
func (s *Study) SweepCounts() []analysis.SweepCount {
	return s.Analyzer.SweepCountSeries(s.Store.Sweeps(), nil)
}

// Reachability computes the scenario reachability series (per-day
// name-server reachability under the AS-level route tables) over the
// standard day axis. Without an active scenario every measured domain is
// reachable.
func (s *Study) Reachability() []analysis.ReachPoint {
	return s.Analyzer.ReachabilitySeries(s.keyDays(), nil)
}

// RouteLatency computes the simulated resolution-latency series under
// the AS-level route tables over the standard day axis.
func (s *Study) RouteLatency() []analysis.RouteLatencyPoint {
	return s.Analyzer.RouteLatencySeries(s.keyDays(), nil)
}

// Movement runs the §3.4 movement analysis for one provider ASN.
func (s *Study) Movement(asn netsim.ASN, from simtime.Day) analysis.Movement {
	return s.Analyzer.MovementAnalysis(asn, from, simtime.StudyEnd, s.World.Registries)
}

// Table1 computes the per-period issuance breakdown.
func (s *Study) Table1() []analysis.PeriodIssuance {
	return analysis.IssuanceByPeriod(s.World.CTLog)
}

// Fig8 computes the top-10 CA issuance timelines.
func (s *Study) Fig8() []analysis.Timeline {
	return analysis.IssuanceTimelines(s.World.CTLog, 10)
}

// Table2 computes the revocation statistics (top-5 revokers).
func (s *Study) Table2() []analysis.RevocationRow {
	return analysis.RevocationStats(s.World.CTLog, s.World.Certs, s.World.Sanctions, 5)
}

// RussianCA computes the §4.3 report.
func (s *Study) RussianCA() analysis.RussianCAReport {
	return analysis.RussianCAImpact(s.Archive, s.World.Sanctions)
}

// Hosting computes the §3.1 hosting-composition series.
func (s *Study) Hosting() []analysis.Point {
	return s.Analyzer.HostingCompositionSeries(s.keyDays(), nil)
}

// Mail computes the mail-operator share series (extension; requires
// CollectMX).
func (s *Study) Mail() []analysis.MailSharePoint {
	return s.Analyzer.MailProviderSeries(s.keyDays(), nil)
}

// Concentration computes HHI series for the hosting and CA markets, plus
// mail when collected (extension).
func (s *Study) Concentration() (hosting, ca, mail []analysis.ConcentrationPoint) {
	ends := []simtime.Day{simtime.StudyStart, simtime.ConflictStart.Add(-1), simtime.StudyEnd}
	hosting = s.Analyzer.HostingConcentration(ends, nil)
	ca = analysis.CAConcentration(s.World.CTLog)
	if s.Opts.CollectMX {
		mail = s.Analyzer.MailConcentration(ends, nil)
	}
	return hosting, ca, mail
}

func compositionChart(title string, series []analysis.Point) *report.Chart {
	full := report.Series{Name: "Full Russian", Mark: 'F', Points: map[simtime.Day]float64{}}
	part := report.Series{Name: "Part Russian", Mark: 'P', Points: map[simtime.Day]float64{}}
	non := report.Series{Name: "Non Russian", Mark: 'N', Points: map[simtime.Day]float64{}}
	days := make([]simtime.Day, 0, len(series))
	var gaps []simtime.Day
	for _, p := range series {
		days = append(days, p.Day)
		if p.Interpolated {
			gaps = append(gaps, p.Day)
		}
		full.Points[p.Day] = p.FullPct()
		part.Points[p.Day] = p.PartPct()
		non.Points[p.Day] = p.NonPct()
	}
	return &report.Chart{
		Title: title, YLabel: "% of domains", YMax: 100,
		Days: days, Series: []report.Series{full, part, non}, Gaps: gaps,
	}
}

// ErrNoSweeps is returned by the figure-and-table entry points when the
// study's store holds no sweeps: nothing was collected, loaded or
// resumed, so there is no series to index into.
var ErrNoSweeps = fmt.Errorf("core: study has no sweeps (run Collect, or load a store or checkpoint first)")

func firstLast[T any](s []T) (first, last T) {
	if len(s) == 0 {
		return
	}
	return s[0], s[len(s)-1]
}

// at returns the series point measured at (or carried into) day.
func at(series []analysis.Point, day simtime.Day) analysis.Point {
	var best analysis.Point
	for i, p := range series {
		if i == 0 || p.Day <= day {
			best = p
		}
	}
	return best
}

func atASN(series []analysis.ASNSharePoint, day simtime.Day) analysis.ASNSharePoint {
	var best analysis.ASNSharePoint
	for i, p := range series {
		if i == 0 || p.Day <= day {
			best = p
		}
	}
	return best
}

// Comparisons computes the paper-vs-measured experiment index across all
// figures and tables. It fails with ErrNoSweeps when the store is empty.
func (s *Study) Comparisons() ([]Comparison, error) {
	if len(s.keyDays()) == 0 {
		return nil, ErrNoSweeps
	}
	var out []Comparison
	add := func(exp, metric, paper string, measured string) {
		out = append(out, Comparison{Experiment: exp, Metric: metric, Paper: paper, Measured: measured})
	}
	pctf := func(v float64) string { return fmt.Sprintf("%.1f%%", v) }

	// §3.1 hosting.
	hosting := s.Hosting()
	hStart, hEnd := firstLast(hosting)
	add("§3.1 hosting", "fully RU-hosted 2017-06-18", "71.0%", pctf(hStart.FullPct()))
	add("§3.1 hosting", "partially RU-hosted 2017-06-18", "0.19%", fmt.Sprintf("%.2f%%", hStart.PartPct()))
	add("§3.1 hosting", "non RU-hosted 2017-06-18", "28.81%", pctf(hStart.NonPct()))
	add("§3.1 hosting", "fully RU-hosted 2022-05-25", "modest increase", pctf(hEnd.FullPct()))

	// Figure 1.
	fig1 := s.Fig1()
	f1Start, f1End := firstLast(fig1)
	add("Fig 1", "fully RU NS 2017-06-18", "67.0%", pctf(f1Start.FullPct()))
	add("Fig 1", "fully RU NS 2022-05-25", "73.9%", pctf(f1End.FullPct()))
	add("Fig 1", "net change", "+6.9 pts", fmt.Sprintf("%+.1f pts", f1End.FullPct()-f1Start.FullPct()))
	preNetnod := at(fig1, world.NetnodCutoffDay.Add(-1))
	postNetnod := at(fig1, world.NetnodCutoffDay)
	add("Fig 1 / §3.2", "Netnod cutoff partial→full step (2022-03-03)", "76k domains",
		fmt.Sprintf("%.1f pts of partial dropped", preNetnod.PartPct()-postNetnod.PartPct()))

	// Figure 2.
	fig2 := s.Fig2()
	f2Start, f2End := firstLast(fig2)
	add("Fig 2", "fully-RU TLD dependency net change", "-6.3 pts", fmt.Sprintf("%+.1f pts", f2End.FullPct()-f2Start.FullPct()))
	add("Fig 2", "partial TLD dependency net change", "+7.9 pts", fmt.Sprintf("%+.1f pts", f2End.PartPct()-f2Start.PartPct()))

	// Figure 3.
	fig3 := s.Fig3()
	f3Start, f3End := firstLast(fig3)
	add("Fig 3", ".ru share 2022-05-25", "78.3%", pctf(f3End.Share("ru")))
	add("Fig 3", ".com share 2022-05-25 (5y change)", "24.7% (+7.5)",
		fmt.Sprintf("%.1f%% (%+.1f)", f3End.Share("com"), f3End.Share("com")-f3Start.Share("com")))
	add("Fig 3", ".pro share 2022-05-25 (5y change)", "12.4% (+3.6)",
		fmt.Sprintf("%.1f%% (%+.1f)", f3End.Share("pro"), f3End.Share("pro")-f3Start.Share("pro")))
	add("Fig 3", ".org share 2022-05-25 (5y change)", "9.2% (+1.0)",
		fmt.Sprintf("%.1f%% (%+.1f)", f3End.Share("org"), f3End.Share("org")-f3Start.Share("org")))
	add("Fig 3", ".net share 2022-05-25 (5y change)", "7.3% (-1.8)",
		fmt.Sprintf("%.1f%% (%+.1f)", f3End.Share("net"), f3End.Share("net")-f3Start.Share("net")))
	add("Fig 3", "rank order on 2022-05-25", "ru > com > pro > org > net",
		fmt.Sprintf("%v", analysis.TopTLDs(fig3, 5)))

	// Figure 4. The 2022 dense window can be empty when a short study
	// window ends before it; skip the rows rather than index into nothing.
	if fig4 := s.Fig4(); len(fig4) > 0 {
		preConflict := atASN(fig4, simtime.ConflictStart.Add(-1))
		f4End := fig4[len(fig4)-1]
		big4 := func(p analysis.ASNSharePoint) float64 {
			return p.Share(197695) + p.Share(48287) + p.Share(9123) + p.Share(198610)
		}
		add("Fig 4", "RU big-four share (start→end of 2022 window)", "38% → 39%",
			fmt.Sprintf("%.1f%% → %.1f%%", big4(preConflict), big4(f4End)))
		add("Fig 4", "Cloudflare share (stable)", "≈7%",
			fmt.Sprintf("%.1f%% → %.1f%%", preConflict.Share(13335), f4End.Share(13335)))
		add("Fig 4", "Sedo share Mar 8 → May 25", "3.1% → ≈0.05%",
			fmt.Sprintf("%.2f%% → %.2f%%", atASN(fig4, world.AmazonStmtDay).Share(47846), f4End.Share(47846)))
	}

	// Figure 5 / §3.3.
	fig5 := s.Fig5()
	feb24 := at(fig5, simtime.ConflictStart)
	mar4 := at(fig5, world.SanctionedNSMoved)
	add("Fig 5 / §3.3", "sanctioned partial NS on Feb 24", "34.0%", pctf(feb24.PartPct()))
	add("Fig 5 / §3.3", "sanctioned non-RU NS on Feb 24", "5.2%", pctf(feb24.NonPct()))
	add("Fig 5 / §3.3", "sanctioned fully-RU NS by Mar 4", "93.8%", pctf(mar4.FullPct()))
	sancHosting := s.Analyzer.HostingCompositionSeries([]simtime.Day{simtime.ConflictStart.Add(-7), simtime.StudyEnd}, s.sanctionedFilter())
	add("§3.3", "sanctioned fully RU-hosted pre-conflict", "101 of 107", fmt.Sprintf("%d of %d", sancHosting[0].Full, sancHosting[0].Total))
	add("§3.3", "sanctioned fully RU-hosted by May 25", "104 of 107", fmt.Sprintf("%d of %d", sancHosting[1].Full, sancHosting[1].Total))

	// Figures 6-7 and §3.4.
	scale := s.Scale()
	am := s.Movement(16509, world.AmazonStmtDay)
	add("Fig 6", "Amazon set on 2022-03-08", "≈58k", report.Count(am.Original, scale))
	add("Fig 6", "remained in AS16509 by May 25", "43%", pctf(am.RemainedPct()))
	add("Fig 6", "incoming (new-reg + relocated-in)", "574 + 988", fmt.Sprintf("%d + %d (scaled)", am.NewlyRegistered, am.RelocatedIn))
	sd := s.Movement(47846, world.SedoStmtDay.Add(-1))
	add("Fig 7", "Sedo set on 2022-03-08", "164k", report.Count(sd.Original, scale))
	add("Fig 7", "relocated out of AS47846", "98%", pctf(sd.RelocatedPct()))
	add("Fig 7", "remained", "1.6%", pctf(sd.RemainedPct()))
	if dests := sd.TopDestinations(1); len(dests) > 0 {
		name := fmt.Sprintf("AS%d", dests[0])
		if p, ok := s.World.ProviderByASN(dests[0]); ok {
			name = fmt.Sprintf("%s (AS%d)", p.Org, dests[0])
		}
		add("Fig 7", "top destination", "Serverel (NL)", name)
	}
	cf := s.Movement(13335, world.CloudflareStmtDay)
	add("§3.4 Cloudflare", "remained in AS13335", "94%", pctf(cf.RemainedPct()))
	add("§3.4 Cloudflare", "newly appeared", "34k", report.Count(cf.NewlyRegistered+cf.RelocatedIn, scale))
	gg := s.Movement(15169, world.GoogleStmtDay)
	add("§3.4 Google", "relocated out of AS15169", "57.1%", pctf(gg.RelocatedPct()))
	if gg.RelocatedOut > 0 {
		intra := 100 * float64(gg.OutDestinations[396982]) / float64(gg.RelocatedOut)
		add("§3.4 Google", "of which to AS396982 (intra-Google)", "75.2%", pctf(intra))
	}

	// Table 1 / §4.
	t1 := s.Table1()
	if len(t1) == 3 {
		add("Tab 1", "Let's Encrypt share pre-conflict", "91.58%", pctf(t1[0].Share(pki.LetsEncrypt)))
		add("Tab 1", "Let's Encrypt share pre-sanctions", "98.06%", pctf(t1[1].Share(pki.LetsEncrypt)))
		add("Tab 1", "Let's Encrypt share post-sanctions", "99.23%", pctf(t1[2].Share(pki.LetsEncrypt)))
		add("§4", "certs/day pre-conflict", "≈130k", fmt.Sprintf("≈%.0fk (paper scale)", t1[0].PerDay()*float64(scale)/1000))
		add("§4", "certs/day post-sanctions", "≈115k", fmt.Sprintf("≈%.0fk (paper scale)", t1[2].PerDay()*float64(scale)/1000))
		add("Tab 1", "post-sanctions top-3", "Let's Encrypt, GlobalSign, Google", topOrgs(t1[2], 3))
	}

	// Figure 8.
	timelines := s.Fig8()
	stopped := 0
	lateWindow := simtime.Date(2022, 4, 15)
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
	add("Fig 8", "top-10 CAs that stopped issuing", "6 of 10", fmt.Sprintf("%d of %d", stopped, len(timelines)))

	// Table 2.
	for _, row := range s.Table2() {
		switch row.Org {
		case pki.DigiCert:
			add("Tab 2", "DigiCert sanctioned revocation rate", "100%", pctf(row.SancRevokedPct()))
		case pki.Sectigo:
			add("Tab 2", "Sectigo sanctioned revocation rate", "100%", pctf(row.SancRevokedPct()))
		case pki.LetsEncrypt:
			add("Tab 2", "Let's Encrypt revocation rate (overall / sanctioned)", "0.06% / 1.19%",
				fmt.Sprintf("%.2f%% / %.2f%%", row.RevokedPct(), row.SancRevokedPct()))
		}
	}

	// §4.3.
	rca := s.RussianCA()
	add("§4.3", "unique Russian Trusted Root CA certs in scans", "170", fmt.Sprintf("%d", rca.UniqueCerts))
	add("§4.3", "distinct .ru / .рф domains secured", "130 / 2", fmt.Sprintf("%d / %d", rca.RuDomains, rca.RFDomains))
	add("§4.3", "certs securing sanctioned domains", "36 (34% of list)",
		fmt.Sprintf("%d (%.0f%% of list)", rca.SanctionedCerts, 100*float64(rca.SanctionedDomains)/107))
	add("§4.3", "Russian CA certs in CT logs", "0 (does not log)", fmt.Sprintf("%d", len(s.World.CTLog.Scan(0, s.World.CTLog.Size(), func(c *pki.Certificate) bool {
		return c.RootOrg == pki.RussianTrustedRootCA
	}))))
	return out, nil
}

func topOrgs(p analysis.PeriodIssuance, k int) string {
	names := make([]string, 0, k)
	for i := 0; i < k && i < len(p.Issuers); i++ {
		names = append(names, p.Issuers[i].Org)
	}
	return fmt.Sprintf("%v", names)
}

// RenderAll writes every figure and table, with charts, to w. It fails
// with ErrNoSweeps when the store is empty.
func (s *Study) RenderAll(w io.Writer) error {
	if len(s.keyDays()) == 0 {
		return ErrNoSweeps
	}
	scale := s.Scale()
	fmt.Fprintf(w, "Where .ru? — reproduction report (scale 1:%d, %d domains, %d sweeps)\n\n",
		scale, s.World.NumDomains(), len(s.Sweeps))

	if _, err := compositionChart("Figure 1: NS-infrastructure country composition (.ru/.рф)", s.Fig1()).WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	if _, err := compositionChart("Figure 2: TLD-dependency composition of delegations", s.Fig2()).WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Figure 3 chart: top-5 TLD shares.
	fig3 := s.Fig3()
	marks := []byte{'r', 'c', 'p', 'o', 'n'}
	var f3Series []report.Series
	for i, tld := range analysis.TopTLDs(fig3, 5) {
		ser := report.Series{Name: "." + tld, Mark: marks[i%len(marks)], Points: map[simtime.Day]float64{}}
		for _, pt := range fig3 {
			ser.Points[pt.Day] = pt.Share(tld)
		}
		f3Series = append(f3Series, ser)
	}
	f3Chart := &report.Chart{Title: "Figure 3: top-5 TLDs of authoritative name servers", YLabel: "% of domains", YMax: 100, Days: s.keyDays(), Series: f3Series, Gaps: s.Store.MissingSweeps()}
	if _, err := f3Chart.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Figure 4 chart.
	fig4 := s.Fig4()
	var f4Days []simtime.Day
	for _, p := range fig4 {
		f4Days = append(f4Days, p.Day)
	}
	var f4Series []report.Series
	f4Marks := []byte{'A', 'S', 'C', 'R', 'N', 'T', 'B', 'V'}
	for i, spec := range fig4ASNs {
		ser := report.Series{Name: spec.Name, Mark: f4Marks[i], Points: map[simtime.Day]float64{}}
		for _, pt := range fig4 {
			ser.Points[pt.Day] = pt.Share(spec.ASN)
		}
		f4Series = append(f4Series, ser)
	}
	f4Chart := &report.Chart{Title: "Figure 4: hosting networks of .ru/.рф domains (top ASNs, 2022)", YLabel: "% of domains", YMax: 20, Days: f4Days, Series: f4Series, Gaps: s.Store.MissingSweeps()}
	if _, err := f4Chart.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	if _, err := compositionChart("Figure 5: sanctioned-domain NS composition (2022)", s.Fig5()).WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Scenario figures: reachability and simulated resolution latency
	// under the AS-level route tables. Rendered only when a routing
	// scenario is active, so scenario-less reports keep their exact
	// historical bytes.
	if s.Analyzer.Routes != nil {
		if err := s.renderScenario(w); err != nil {
			return err
		}
	}

	// Figures 6-7 + §3.4 movement tables.
	moveTable := &report.Table{
		Title:   "Figures 6-7 / §3.4: domain movement by provider (baseline day → 2022-05-25)",
		Headers: []string{"provider", "baseline", "original", "remained", "relocated", "gone", "new-reg in", "moved in", "top dest"},
	}
	for _, spec := range []struct {
		name string
		asn  netsim.ASN
		from simtime.Day
	}{
		{"Amazon AS16509", 16509, world.AmazonStmtDay},
		{"Sedo AS47846", 47846, world.SedoStmtDay.Add(-1)},
		{"Cloudflare AS13335", 13335, world.CloudflareStmtDay},
		{"Google AS15169", 15169, world.GoogleStmtDay},
	} {
		m := s.Movement(spec.asn, spec.from)
		dest := "-"
		if d := m.TopDestinations(1); len(d) > 0 {
			dest = fmt.Sprintf("AS%d", d[0])
			if p, ok := s.World.ProviderByASN(d[0]); ok {
				dest = fmt.Sprintf("%s AS%d", p.Org, d[0])
			}
		}
		moveTable.AddRow(spec.name, spec.from.String(), fmt.Sprint(m.Original),
			fmt.Sprintf("%d (%.1f%%)", m.Remained, m.RemainedPct()),
			fmt.Sprintf("%d (%.1f%%)", m.RelocatedOut, m.RelocatedPct()),
			fmt.Sprint(m.Gone), fmt.Sprint(m.NewlyRegistered), fmt.Sprint(m.RelocatedIn), dest)
	}
	if _, err := moveTable.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Figures 6 and 7 as flow diagrams.
	for _, spec := range []struct {
		title string
		asn   netsim.ASN
		from  simtime.Day
	}{
		{"Figure 6: movement of Russian domains in Amazon's AS16509", 16509, world.AmazonStmtDay},
		{"Figure 7: movement of Russian domains in Sedo's AS47846", 47846, world.SedoStmtDay.Add(-1)},
	} {
		m := s.Movement(spec.asn, spec.from)
		flow := &report.Flows{
			Title:  spec.title,
			Source: fmt.Sprintf("AS%d on %s", spec.asn, spec.from),
			Total:  m.Original,
		}
		flow.Add("remained", m.Remained)
		for _, dest := range m.TopDestinations(4) {
			name := fmt.Sprintf("AS%d", dest)
			if p, ok := s.World.ProviderByASN(dest); ok {
				name = fmt.Sprintf("%s AS%d", p.Org, dest)
			}
			flow.Add(name, m.OutDestinations[dest])
		}
		if m.Gone > 0 {
			flow.Add("left the zone", m.Gone)
		}
		if _, err := flow.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	// Table 1.
	t1 := &report.Table{
		Title:   "Table 1: issuing activity of CAs per period (counts at simulation scale)",
		Headers: []string{"period", "days", "total", "certs/day (paper scale)", "top issuers"},
	}
	for _, p := range s.Table1() {
		top := ""
		for i, ic := range p.Issuers {
			if i >= 3 {
				break
			}
			if i > 0 {
				top += ", "
			}
			top += fmt.Sprintf("%s %.2f%%", ic.Org, p.Share(ic.Org))
		}
		t1.AddRow(p.Period.String(), fmt.Sprint(p.Days), fmt.Sprint(p.Total),
			fmt.Sprintf("%.0f", p.PerDay()*float64(scale)), top)
	}
	if _, err := t1.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Figure 8 dot timeline.
	timelines := s.Fig8()
	dot := &report.DotTimeline{
		Title: "Figure 8: CA issuance-activity timelines (Jan 1 – May 15, 2022)",
		From:  simtime.CTWindowStart, To: simtime.CTWindowEnd, Step: 2,
		Marks: map[simtime.Day]byte{simtime.ConflictStart: '|', simtime.SanctionsInEffect: '|'},
	}
	for _, tl := range timelines {
		dot.Rows = append(dot.Rows, report.DotRow{Name: tl.Org, Active: tl.ActiveDays})
	}
	if _, err := dot.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Table 2.
	t2 := &report.Table{
		Title:   "Table 2: revocation activity (top-5 revoking CAs)",
		Headers: []string{"issuer", "issued", "revoked", "rate", "sanc issued", "sanc revoked", "sanc rate"},
	}
	for _, r := range s.Table2() {
		t2.AddRow(r.Org, fmt.Sprint(r.Issued), fmt.Sprint(r.Revoked), report.Pct(r.RevokedPct()),
			fmt.Sprint(r.SancIssued), fmt.Sprint(r.SancRevoked), report.Pct(r.SancRevokedPct()))
	}
	if _, err := t2.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// §4.3.
	rca := s.RussianCA()
	fmt.Fprintf(w, "§4.3 Russian Trusted Root CA (from %d scan days):\n", len(s.Archive.Days()))
	fmt.Fprintf(w, "  unique certificates observed: %d (paper: 170)\n", rca.UniqueCerts)
	fmt.Fprintf(w, "  .ru domains secured: %d (paper: 130); .рф: %d (paper: 2); other TLDs: %d\n", rca.RuDomains, rca.RFDomains, rca.OtherTLDNames)
	fmt.Fprintf(w, "  sanctioned-domain certs: %d covering %d domains (%.0f%% of the list)\n",
		rca.SanctionedCerts, rca.SanctionedDomains, 100*float64(rca.SanctionedDomains)/107)
	fmt.Fprintf(w, "  backdrop certificates from other CAs in the same scans: %d\n\n", rca.BackdropCerts)

	// Extension: relocation latency after provider exits (§6: "virtually
	// all of the impacted sites quickly found new providers").
	lt := &report.Table{
		Title:   "Extension: relocation latency after provider exits (days to first new ASN)",
		Headers: []string{"provider", "event", "relocated", "median", "p90", "still there", "gone"},
	}
	for _, spec := range []struct {
		name  string
		asn   netsim.ASN
		event simtime.Day
	}{
		{"Sedo AS47846", 47846, world.SedoStmtDay.Add(-1)},
		{"Amazon AS16509", 16509, world.AmazonStmtDay},
		{"Google AS15169", 15169, world.GoogleStmtDay},
	} {
		rep := s.Analyzer.RelocationLatency(spec.asn, spec.event, simtime.StudyEnd)
		med, _ := rep.Median()
		p90, _ := rep.Percentile(90)
		lt.AddRow(spec.name, spec.event.String(), fmt.Sprint(rep.Relocated),
			fmt.Sprintf("%d d", med), fmt.Sprintf("%d d", p90),
			fmt.Sprint(rep.StillThere), fmt.Sprint(rep.Gone))
	}
	if _, err := lt.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Extension: mail-operator shares + market concentration.
	if s.Opts.CollectMX {
		mail := s.Mail()
		if len(mail) > 0 && mail[len(mail)-1].WithMail > 0 {
			mt := &report.Table{
				Title:   "Extension: mail operators of .ru/.рф domains (Liu et al. methodology)",
				Headers: []string{"mail zone", "share of domains with MX (2022-05-25)"},
			}
			last := mail[len(mail)-1]
			for _, z := range analysis.TopMailZones(mail, 6) {
				mt.AddRow(z, report.Pct(last.Share(z)))
			}
			if _, err := mt.WriteTo(w); err != nil {
				return err
			}
			fmt.Fprintln(w)
		}
	}
	hostHHI, caHHI, mailHHI := s.Concentration()
	ct := &report.Table{
		Title:   "Extension: market concentration (HHI; 1.0 = monopoly)",
		Headers: []string{"market", "point", "HHI", "top-1 share", "participants"},
	}
	for _, p := range hostHHI {
		ct.AddRow("hosting (ASNs)", p.Day.String(), fmt.Sprintf("%.3f", p.HHI), report.Pct(p.Top1Share), fmt.Sprint(p.Participants))
	}
	for i, p := range caHHI {
		period := []string{"pre-conflict", "pre-sanctions", "post-sanctions"}[i]
		ct.AddRow("certificates (CAs)", period, fmt.Sprintf("%.3f", p.HHI), report.Pct(p.Top1Share), fmt.Sprint(p.Participants))
	}
	for _, p := range mailHHI {
		ct.AddRow("mail (operators)", p.Day.String(), fmt.Sprintf("%.3f", p.HHI), report.Pct(p.Top1Share), fmt.Sprint(p.Participants))
	}
	if _, err := ct.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	// Paper-vs-measured index.
	idx := &report.Table{
		Title:   "Paper vs measured (experiment index)",
		Headers: []string{"experiment", "metric", "paper", "measured"},
	}
	comps, err := s.Comparisons()
	if err != nil {
		return err
	}
	for _, c := range comps {
		idx.AddRow(c.Experiment, c.Metric, c.Paper, c.Measured)
	}
	_, err = idx.WriteTo(w)
	return err
}

// renderScenario writes the routing-scenario figures: the reachability
// chart, the per-country reachability table at the final day, and the
// simulated resolution-latency chart.
func (s *Study) renderScenario(w io.Writer) error {
	reach := s.Reachability()
	reachSer := report.Series{Name: "reachable", Mark: 'R', Points: map[simtime.Day]float64{}}
	days := make([]simtime.Day, 0, len(reach))
	var gaps []simtime.Day
	for _, p := range reach {
		days = append(days, p.Day)
		if p.Interpolated {
			gaps = append(gaps, p.Day)
		}
		v := 100.0
		if p.Total > 0 {
			v = 100 * float64(p.Reachable) / float64(p.Total)
		}
		reachSer.Points[p.Day] = v
	}
	chart := &report.Chart{
		Title:  fmt.Sprintf("Scenario %q: NS reachability from the measurement vantage", s.Opts.Scenario),
		YLabel: "% of domains", YMax: 100,
		Days: days, Series: []report.Series{reachSer}, Gaps: gaps,
	}
	if _, err := chart.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)

	if len(reach) > 0 {
		last := reach[len(reach)-1]
		rt := &report.Table{
			Title:   fmt.Sprintf("Scenario reachability by NS country on %s", last.Day),
			Headers: []string{"country", "domains", "reachable", "rate"},
		}
		for _, c := range last.Countries {
			rate := 0.0
			if c.Total > 0 {
				rate = 100 * float64(c.Reachable) / float64(c.Total)
			}
			rt.AddRow(c.Country, fmt.Sprint(c.Total), fmt.Sprint(c.Reachable), report.Pct(rate))
		}
		if _, err := rt.WriteTo(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}

	lat := s.RouteLatency()
	p50 := report.Series{Name: "p50", Mark: '5', Points: map[simtime.Day]float64{}}
	p99 := report.Series{Name: "p99", Mark: '9', Points: map[simtime.Day]float64{}}
	ymax := 0.0
	for _, p := range lat {
		v50 := float64(p.P50.Microseconds()) / 1000
		v99 := float64(p.P99.Microseconds()) / 1000
		p50.Points[p.Day] = v50
		p99.Points[p.Day] = v99
		if v99 > ymax {
			ymax = v99
		}
	}
	if ymax < 1 {
		ymax = 1
	}
	latChart := &report.Chart{
		Title:  fmt.Sprintf("Scenario %q: simulated resolution latency (best NS path)", s.Opts.Scenario),
		YLabel: "ms", YMax: ymax,
		Days: days, Series: []report.Series{p50, p99}, Gaps: gaps,
	}
	if _, err := latChart.WriteTo(w); err != nil {
		return err
	}
	fmt.Fprintln(w)
	return nil
}

// ExperimentsMarkdown writes the EXPERIMENTS.md content: the per-
// experiment paper-vs-measured record for the current run.
func (s *Study) ExperimentsMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# EXPERIMENTS — paper vs measured\n\n")
	fmt.Fprintf(w, "Generated by `go run ./cmd/whereru -markdown EXPERIMENTS.md` from a deterministic run: seed %d, scale 1:%d\n",
		s.Opts.World.Seed, s.Scale())
	fmt.Fprintf(w, "(%d simulated domains ever registered; absolute counts below are at\n", s.World.NumDomains())
	fmt.Fprintf(w, "simulation scale unless marked otherwise), %d DNS sweeps %s..%s,\n",
		len(s.Sweeps), simtime.StudyStart, simtime.StudyEnd)
	fmt.Fprintf(w, "weekly TLS scans %s..%s.\n\n", world.RussianCAStartDay, simtime.CTWindowEnd)
	fmt.Fprintf(w, "The reproduction targets the paper's *shape* — who wins, directions of\n")
	fmt.Fprintf(w, "change, where steps fall — not its absolute testbed counts; see\n")
	fmt.Fprintf(w, "DESIGN.md §1 for the substitution rationale and deviations.\n\n")

	comps, err := s.Comparisons()
	if err != nil {
		return err
	}
	group := ""
	for _, c := range comps {
		if c.Experiment != group {
			group = c.Experiment
			fmt.Fprintf(w, "\n## %s\n\n", group)
			fmt.Fprintf(w, "| metric | paper | measured |\n|---|---|---|\n")
		}
		fmt.Fprintf(w, "| %s | %s | %s |\n", c.Metric, c.Paper, c.Measured)
	}
	fmt.Fprintf(w, "\n## Known level deviations (shape preserved)\n\n")
	fmt.Fprintf(w, "- Figure 3 levels: the simulated `.com` share runs high (≈31%% vs 24.7%%)\n")
	fmt.Fprintf(w, "  and `.ru`/`.pro` run a few points low; growth directions, growth\n")
	fmt.Fprintf(w, "  magnitudes and the rank order (ru > com > pro > org > net) match.\n")
	fmt.Fprintf(w, "- Figure 2 levels: fully-Russian TLD dependency sits ≈6 points below the\n")
	fmt.Fprintf(w, "  paper's curve; the published net changes (-6.3 full / +7.9 partial) and\n")
	fmt.Fprintf(w, "  the tiny conflict-time step are reproduced.\n")
	fmt.Fprintf(w, "- Table 2 sanctioned issuance counts are scaled (Let's Encrypt's 16k\n")
	fmt.Fprintf(w, "  modeled at 1:10 before world scaling); revocation *rates* — the table's\n")
	fmt.Fprintf(w, "  signal — are preserved, including 100%% for DigiCert and Sectigo.\n")
	fmt.Fprintf(w, "- The 2021-03-22 measurement outage (paper footnote 8) is supported as a\n")
	fmt.Fprintf(w, "  scheduled fault-profile window (`Options.SimulateOutage`, applied to the\n")
	fmt.Fprintf(w, "  registry TLD servers via `dns.FaultTransport`) but not enabled in the\n")
	fmt.Fprintf(w, "  default schedule. Injected packet loss (`Options.Loss`) is likewise\n")
	fmt.Fprintf(w, "  off by default; when enabled, per-sweep retry/recovery counts are\n")
	fmt.Fprintf(w, "  recorded in `SweepStats`.\n")
	return nil
}

// ExportCSV writes the principal longitudinal series as CSV files via
// the create callback: fig1 (NS composition), fig2 (TLD dependency),
// fig3 (TLD shares), fig4 (ASN shares), fig5 (sanctioned composition).
func (s *Study) ExportCSV(create func(name string) (io.WriteCloser, error)) error {
	writeSeries := func(name string, header []string, rows [][]string) error {
		f, err := create(name)
		if err != nil {
			return err
		}
		if err := report.CSV(f, header, rows); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	comp := func(series []analysis.Point) [][]string {
		rows := make([][]string, 0, len(series))
		for _, p := range series {
			interp := "0"
			if p.Interpolated {
				interp = "1"
			}
			rows = append(rows, []string{p.Day.String(),
				fmt.Sprintf("%.4f", p.FullPct()), fmt.Sprintf("%.4f", p.PartPct()),
				fmt.Sprintf("%.4f", p.NonPct()), fmt.Sprint(p.Total), interp})
		}
		return rows
	}
	compHeader := []string{"day", "full_pct", "part_pct", "non_pct", "total", "interpolated"}
	if err := writeSeries("fig1_ns_composition.csv", compHeader, comp(s.Fig1())); err != nil {
		return err
	}
	if err := writeSeries("fig2_tld_dependency.csv", compHeader, comp(s.Fig2())); err != nil {
		return err
	}
	if err := writeSeries("fig5_sanctioned.csv", compHeader, comp(s.Fig5())); err != nil {
		return err
	}
	fig3 := s.Fig3()
	top := analysis.TopTLDs(fig3, 5)
	var f3rows [][]string
	for _, p := range fig3 {
		row := []string{p.Day.String()}
		for _, tld := range top {
			row = append(row, fmt.Sprintf("%.4f", p.Share(tld)))
		}
		f3rows = append(f3rows, row)
	}
	if err := writeSeries("fig3_tld_shares.csv", append([]string{"day"}, top...), f3rows); err != nil {
		return err
	}
	fig4 := s.Fig4()
	f4header := []string{"day"}
	for _, spec := range fig4ASNs {
		f4header = append(f4header, fmt.Sprintf("AS%d", spec.ASN))
	}
	var f4rows [][]string
	for _, p := range fig4 {
		row := []string{p.Day.String()}
		for _, spec := range fig4ASNs {
			row = append(row, fmt.Sprintf("%.4f", p.Share(spec.ASN)))
		}
		f4rows = append(f4rows, row)
	}
	return writeSeries("fig4_asn_shares.csv", f4header, f4rows)
}
