package analysis

import (
	"context"
	"sync"
	"testing"

	"whereru/internal/openintel"
	"whereru/internal/pki"
	"whereru/internal/scan"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// The integration fixture builds one small world, runs the full
// OpenINTEL-style collection over the study window, and runs the daily
// TLS scans — everything downstream of it verifies the paper's figures
// and tables against tolerances. Percent tolerances are wide enough for
// 1:2000-scale binomial noise; the assertions pin the paper's *shape*
// (directions, ranks, steps), with levels checked loosely.
type fixture struct {
	w       *world.World
	store   *store.Store
	an      *Analyzer
	archive *scan.Archive
	days    []simtime.Day
}

var (
	fixOnce sync.Once
	fix     *fixture
	fixErr  error
)

func getFixture(t testing.TB) *fixture {
	t.Helper()
	fixOnce.Do(func() {
		w, err := world.Build(world.TestConfig())
		if err != nil {
			fixErr = err
			return
		}
		st := store.New()
		pipe := &openintel.Pipeline{
			Resolver:  w.NewResolver(),
			Seeds:     w.Registries,
			Clock:     w.Clock(),
			Store:     st,
			Workers:   8,
			CollectMX: true,
		}
		days := openintel.Schedule(simtime.StudyStart, simtime.StudyEnd, simtime.Date(2022, 2, 1), 3)
		if _, err := pipe.Run(context.Background(), days); err != nil {
			fixErr = err
			return
		}
		archive := scan.NewArchive()
		for d := world.RussianCAStartDay; d <= simtime.CTWindowEnd; d = d.Add(7) {
			archive.Record(d, w.Scanner.Sweep(d))
		}
		fix = &fixture{
			w:       w,
			store:   st,
			an:      &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet},
			archive: archive,
			days:    days,
		}
	})
	if fixErr != nil {
		t.Fatalf("fixture: %v", fixErr)
	}
	return fix
}

func within(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if got < want-tol || got > want+tol {
		t.Errorf("%s = %.2f, want %.2f ± %.2f", what, got, want, tol)
	}
}

// TestFig1NSComposition verifies the paper's headline Figure 1 numbers:
// 67.0% fully-Russian name-server infrastructure at the start, 73.9% at
// the end, stable in between, with the jump at the conflict.
func TestFig1NSComposition(t *testing.T) {
	f := getFixture(t)
	series := f.an.NSCompositionSeries([]simtime.Day{
		simtime.StudyStart,
		simtime.Date(2022, 2, 22),
		simtime.StudyEnd,
	}, nil)
	start, preConflict, end := series[0], series[1], series[2]

	within(t, "NS full start", start.FullPct(), 67.0, 4.0)
	within(t, "NS full end", end.FullPct(), 73.9, 4.0)
	if end.FullPct()-start.FullPct() < 3.0 {
		t.Errorf("full-Russian NS change = %.1f points, want ≈ +6.9", end.FullPct()-start.FullPct())
	}
	// Pre-conflict stability: "this breakdown ... is stable over time".
	if diff := preConflict.FullPct() - start.FullPct(); diff > 3 || diff < -4 {
		t.Errorf("pre-conflict drift = %.1f points, want ≈ 0", diff)
	}
	// The post-conflict repatriation drains the partial class.
	if end.PartPct() >= preConflict.PartPct() {
		t.Errorf("partial did not shrink after conflict: %.1f → %.1f", preConflict.PartPct(), end.PartPct())
	}
}

// TestNetnodStep verifies §3.2: Netnod's withdrawal flips its customers
// from partial to full between March 2 and March 3, as a step.
func TestNetnodStep(t *testing.T) {
	f := getFixture(t)
	series := f.an.NSCompositionSeries([]simtime.Day{
		world.NetnodCutoffDay.Add(-1),
		world.NetnodCutoffDay,
	}, nil)
	before, after := series[0], series[1]
	drop := before.PartPct() - after.PartPct()
	if drop < 0.8 {
		t.Errorf("partial drop at Netnod cutoff = %.2f points, want ≥ 0.8 (76k domains at paper scale)", drop)
	}
	if after.FullPct() <= before.FullPct() {
		t.Error("full share did not rise at Netnod cutoff")
	}
}

// TestHostingComposition verifies §3.1: 71.0% fully Russian-hosted,
// 0.19% partial, 28.81% non on 2017-06-18, and only modest change after.
func TestHostingComposition(t *testing.T) {
	f := getFixture(t)
	series := f.an.HostingCompositionSeries([]simtime.Day{simtime.StudyStart, simtime.StudyEnd}, nil)
	start, end := series[0], series[1]
	within(t, "hosting full start", start.FullPct(), 71.0, 4.0)
	within(t, "hosting non start", start.NonPct(), 28.81, 4.0)
	if start.PartPct() > 1.5 {
		t.Errorf("hosting partial start = %.2f%%, want ≈ 0.19%%", start.PartPct())
	}
	// "These are modest effects": single-digit change.
	if diff := end.FullPct() - start.FullPct(); diff < -3 || diff > 9 {
		t.Errorf("hosting full change = %.1f points, want small positive", diff)
	}
}

// TestFig2TLDDependency verifies the counter-intuitive Figure 2 trend:
// fully-Russian TLD dependency *falls* (≈ −6.3 points) while partial
// *rises* (≈ +7.9), and the conflict barely moves it (+0.2/+0.5).
func TestFig2TLDDependency(t *testing.T) {
	f := getFixture(t)
	series := f.an.TLDDependencySeries([]simtime.Day{
		simtime.StudyStart,
		simtime.Date(2022, 2, 22),
		simtime.StudyEnd,
	}, nil)
	start, preConflict, end := series[0], series[1], series[2]
	fullChange := end.FullPct() - start.FullPct()
	partChange := end.PartPct() - start.PartPct()
	within(t, "TLD full net change", fullChange, -6.3, 4.0)
	if partChange < 2.0 {
		t.Errorf("TLD partial net change = %.1f, want ≈ +7.9", partChange)
	}
	// The conflict-time change is slight (paper: +0.2 full, +0.5 part).
	if step := end.FullPct() - preConflict.FullPct(); step < -1.5 || step > 3.0 {
		t.Errorf("TLD full conflict step = %.1f, want slight", step)
	}
}

// TestFig3TopTLDs verifies Figure 3's ranking: .ru ≫ .com > .pro > .org >
// .net on the final day, .com and .pro growing, .ru ≈ stable near 78%.
func TestFig3TopTLDs(t *testing.T) {
	f := getFixture(t)
	series := f.an.TLDShareSeries([]simtime.Day{simtime.StudyStart, simtime.StudyEnd}, nil)
	start, end := series[0], series[1]

	top := TopTLDs(series, 5)
	if len(top) != 5 || top[0] != "ru" || top[1] != "com" {
		t.Fatalf("top TLDs = %v, want ru, com leading", top)
	}
	wantOrder := []string{"ru", "com", "pro", "org", "net"}
	for i, tld := range wantOrder {
		if top[i] != tld {
			t.Errorf("rank %d = %s, want %s (full ranking %v)", i+1, top[i], tld, top)
		}
	}
	if end.Share("ru") < 60 {
		t.Errorf(".ru share end = %.1f, want ≈ 78.3 (dominant)", end.Share("ru"))
	}
	if growth := end.Share("com") - start.Share("com"); growth < 3.0 {
		t.Errorf(".com growth = %.1f points, want ≈ +7.5", growth)
	}
	if growth := end.Share("pro") - start.Share("pro"); growth < 0.8 {
		t.Errorf(".pro growth = %.1f points, want ≈ +3.6", growth)
	}
}

// TestFig4ASNShares verifies Figure 4: the Russian big four are stable at
// 38-39%, Cloudflare ≈ 7% throughout, and the Amazon/Sedo → Serverel
// migration plays out.
func TestFig4ASNShares(t *testing.T) {
	f := getFixture(t)
	days := []simtime.Day{simtime.Date(2022, 2, 22), world.AmazonStmtDay, simtime.StudyEnd}
	series := f.an.ASNShareSeries(days, nil)
	preConflict, mar8, end := series[0], series[1], series[2]

	bigFour := func(p ASNSharePoint) float64 {
		return p.Share(197695) + p.Share(48287) + p.Share(9123) + p.Share(198610)
	}
	within(t, "big-four share pre-conflict", bigFour(preConflict), 38, 5)
	within(t, "big-four share end", bigFour(end), 39, 5)
	// Cloudflare: "stable ... nearly 7% throughout this period".
	within(t, "cloudflare pre-conflict", preConflict.Share(13335), 6.5, 2.5)
	if diff := end.Share(13335) - preConflict.Share(13335); diff < -1.5 || diff > 2.5 {
		t.Errorf("cloudflare share moved %.2f points, want ≈ stable", diff)
	}
	// Sedo collapses after March 9.
	if mar8.Share(47846) < 1.5 {
		t.Errorf("sedo share on Mar 8 = %.2f, want ≈ 3.1", mar8.Share(47846))
	}
	if end.Share(47846) > 0.5 {
		t.Errorf("sedo share at end = %.2f, want ≈ 0.05 (98%% gone)", end.Share(47846))
	}
	// Serverel inherits the parked domains.
	if end.Share(29802) <= mar8.Share(29802) {
		t.Error("serverel share did not grow after the Sedo exodus")
	}
}

// TestFig5Sanctioned verifies §3.3: on Feb 24, 34.0% of sanctioned
// domains have partial and 5.2% non-Russian DNS; by March 4, 93.8% are
// fully Russian.
func TestFig5Sanctioned(t *testing.T) {
	f := getFixture(t)
	sanc := f.w.Sanctions
	filter := func(domain string) bool { return sanc.ContainsEver(domain) }
	series := f.an.NSCompositionSeries([]simtime.Day{
		simtime.ConflictStart,
		world.SanctionedNSMoved,
		simtime.StudyEnd,
	}, filter)
	feb24, mar4 := series[0], series[1]

	if feb24.Total != 107 {
		t.Fatalf("sanctioned domains measured on Feb 24 = %d, want 107", feb24.Total)
	}
	within(t, "sanctioned partial Feb 24", feb24.PartPct(), 34.0, 2.0)
	within(t, "sanctioned non Feb 24", feb24.NonPct(), 5.2, 2.0)
	within(t, "sanctioned full Mar 4", mar4.FullPct(), 93.8, 2.0)
}

// TestSanctionedHosting verifies §3.3's hosting claim: 101 of 107 already
// fully Russian-hosted before the conflict; three more by May 25; three
// never.
func TestSanctionedHosting(t *testing.T) {
	f := getFixture(t)
	sanc := f.w.Sanctions
	filter := func(domain string) bool { return sanc.ContainsEver(domain) }
	series := f.an.HostingCompositionSeries([]simtime.Day{
		simtime.ConflictStart.Add(-7),
		simtime.StudyEnd,
	}, filter)
	before, end := series[0], series[1]
	if before.Full != 101 {
		t.Errorf("sanctioned fully RU-hosted pre-conflict = %d, want 101", before.Full)
	}
	if end.Full != 104 {
		t.Errorf("sanctioned fully RU-hosted at end = %d, want 104", end.Full)
	}
	if end.Non != 3 {
		t.Errorf("sanctioned still foreign-hosted at end = %d, want 3", end.Non)
	}
}

// TestFig6AmazonMovement verifies §3.4/Figure 6: >half of Amazon's
// Russian domains relocate, ≈43% remain, with newly registered and
// relocated-in domains appearing despite Amazon's announcement.
func TestFig6AmazonMovement(t *testing.T) {
	f := getFixture(t)
	m := f.an.MovementAnalysis(16509, world.AmazonStmtDay, simtime.StudyEnd, f.w.Registries)
	if m.Original < 10 {
		t.Fatalf("amazon original set = %d, too small to analyze", m.Original)
	}
	within(t, "amazon remained pct", m.RemainedPct(), 43, 15)
	if m.RelocatedOut+m.Gone < m.Remained {
		t.Error("more than half should have relocated")
	}
	if m.NewlyRegistered+m.RelocatedIn == 0 {
		t.Error("no incoming domains; paper reports 574 new + 988 relocated in")
	}
}

// TestFig7SedoMovement verifies §3.4/Figure 7: Sedo's set almost entirely
// relocates (98%), predominantly to Serverel (NL).
func TestFig7SedoMovement(t *testing.T) {
	f := getFixture(t)
	m := f.an.MovementAnalysis(47846, world.SedoStmtDay.Add(-1), simtime.StudyEnd, f.w.Registries)
	if m.Original < 30 {
		t.Fatalf("sedo original set = %d, too small", m.Original)
	}
	if m.RemainedPct() > 6 {
		t.Errorf("sedo remained = %.1f%%, want ≈ 1.6%%", m.RemainedPct())
	}
	if m.RelocatedPct() < 85 {
		t.Errorf("sedo relocated = %.1f%%, want ≈ 98%%", m.RelocatedPct())
	}
	dests := m.TopDestinations(1)
	if len(dests) == 0 || dests[0] != 29802 {
		t.Errorf("top sedo destination = %v, want Serverel AS29802", dests)
	}
}

// TestCloudflareGoogleMovement verifies the other two §3.4 case studies:
// Cloudflare's set stays put (94% remain, new domains keep arriving);
// Google's set relocates 57.1%, but three quarters of that merely moves
// to Google's other ASN.
func TestCloudflareGoogleMovement(t *testing.T) {
	f := getFixture(t)
	cf := f.an.MovementAnalysis(13335, world.CloudflareStmtDay, simtime.StudyEnd, f.w.Registries)
	if cf.Original < 50 {
		t.Fatalf("cloudflare original set = %d, too small", cf.Original)
	}
	within(t, "cloudflare remained pct", cf.RemainedPct(), 94, 6)
	if cf.NewlyRegistered+cf.RelocatedIn == 0 {
		t.Error("no new cloudflare domains; paper reports 34k appearing")
	}

	g := f.an.MovementAnalysis(15169, world.GoogleStmtDay, simtime.StudyEnd, f.w.Registries)
	if g.Original < 3 {
		t.Fatalf("google original set = %d, too small", g.Original)
	}
	if g.RelocatedPct() < 25 || g.RelocatedPct() > 85 {
		t.Errorf("google relocated = %.1f%%, want ≈ 57.1%%", g.RelocatedPct())
	}
	if g.RelocatedOut > 2 {
		intra := g.OutDestinations[396982]
		if pct := 100 * float64(intra) / float64(g.RelocatedOut); pct < 40 {
			t.Errorf("intra-Google moves = %.0f%% of relocations, want ≈ 75.2%%", pct)
		}
	}
}

// TestTable1Issuance verifies §4.1/Table 1: Let's Encrypt's share climbs
// from ≈91.6%% to ≈99.2%%, and the post-sanctions top-3 is exactly
// Let's Encrypt, GlobalSign, Google.
func TestTable1Issuance(t *testing.T) {
	f := getFixture(t)
	periods := IssuanceByPeriod(f.w.CTLog)
	if len(periods) != 3 {
		t.Fatalf("periods = %d", len(periods))
	}
	pre, mid, post := periods[0], periods[1], periods[2]
	within(t, "LE share pre-conflict", pre.Share(pki.LetsEncrypt), 91.58, 3)
	within(t, "LE share pre-sanctions", mid.Share(pki.LetsEncrypt), 98.06, 2)
	within(t, "LE share post-sanctions", post.Share(pki.LetsEncrypt), 99.23, 1)
	// Pre-conflict runners-up: DigiCert then cPanel.
	if len(pre.Issuers) < 3 || pre.Issuers[0].Org != pki.LetsEncrypt ||
		pre.Issuers[1].Org != pki.DigiCert || pre.Issuers[2].Org != pki.CPanel {
		t.Errorf("pre-conflict top-3 = %v, want LE, DigiCert, cPanel", pre.Issuers[:min(3, len(pre.Issuers))])
	}
	// Post-sanctions: only LE, GlobalSign, Google matter.
	if len(post.Issuers) < 3 || post.Issuers[0].Org != pki.LetsEncrypt ||
		post.Issuers[1].Org != pki.GlobalSign || post.Issuers[2].Org != pki.GoogleTrust {
		t.Errorf("post-sanctions top-3 = %v, want LE, GlobalSign, Google", post.Issuers[:min(3, len(post.Issuers))])
	}
	// Volume: ≈130k/day pre-conflict vs ≈115k/day after (scaled).
	scale := float64(f.w.Config().Scale)
	within(t, "certs/day pre-conflict (paper-scale)", pre.PerDay()*scale, 130000, 20000)
	within(t, "certs/day post-sanctions (paper-scale)", post.PerDay()*scale, 115000, 20000)
	if pre.PerDay() <= post.PerDay() {
		t.Error("issuance rate should dip after the conflict")
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// TestFig8Timelines verifies Figure 8: of the top-10 CAs, six stop
// issuing (at most isolated dots remain) while Let's Encrypt, GlobalSign
// and Google continue to the end of the window.
func TestFig8Timelines(t *testing.T) {
	f := getFixture(t)
	timelines := IssuanceTimelines(f.w.CTLog, 10)
	if len(timelines) < 8 {
		t.Fatalf("only %d CAs in timelines", len(timelines))
	}
	lateWindow := simtime.Date(2022, 4, 15)
	activeLate := func(tl Timeline) int {
		n := 0
		for d := range tl.ActiveDays {
			if d >= lateWindow {
				n++
			}
		}
		return n
	}
	stopped := 0
	continuing := map[string]bool{}
	for _, tl := range timelines {
		if activeLate(tl) <= 2 {
			stopped++
		} else {
			continuing[tl.Org] = true
		}
	}
	if stopped < 5 {
		t.Errorf("stopped CAs = %d of %d, want ≥ 6 of 10", stopped, len(timelines))
	}
	for _, org := range []string{pki.LetsEncrypt, pki.GlobalSign} {
		if !continuing[org] {
			t.Errorf("%s should continue issuing to the end", org)
		}
	}
	if timelines[0].Org != pki.LetsEncrypt {
		t.Errorf("largest issuer = %s, want Let's Encrypt", timelines[0].Org)
	}
}

// TestTable2Revocations verifies §4.2/Table 2: DigiCert and Sectigo
// revoke 100% of their sanctioned-domain certificates, and every CA's
// sanctioned revocation rate exceeds its overall rate.
func TestTable2Revocations(t *testing.T) {
	f := getFixture(t)
	rows := RevocationStats(f.w.CTLog, f.w.Certs, f.w.Sanctions, 5)
	if len(rows) != 5 {
		t.Fatalf("rows = %d", len(rows))
	}
	byOrg := map[string]RevocationRow{}
	for _, r := range rows {
		byOrg[r.Org] = r
	}
	for _, org := range []string{pki.DigiCert, pki.Sectigo} {
		r, ok := byOrg[org]
		if !ok {
			t.Errorf("%s missing from top revokers", org)
			continue
		}
		if r.SancIssued == 0 || r.SancRevoked != r.SancIssued {
			t.Errorf("%s sanctioned revocations = %d/%d, want 100%%", org, r.SancRevoked, r.SancIssued)
		}
	}
	if le, ok := byOrg[pki.LetsEncrypt]; ok {
		if le.RevokedPct() > 0.5 {
			t.Errorf("LE overall revocation rate = %.2f%%, want ≈ 0.06%%", le.RevokedPct())
		}
		if le.SancRevokedPct() <= le.RevokedPct() {
			t.Error("LE sanctioned rate should exceed overall rate")
		}
	} else {
		t.Error("Let's Encrypt missing from revocation table")
	}
	// Paper: all CAs have higher sanctioned revocation rates.
	for _, r := range rows {
		if r.SancIssued > 0 && r.SancRevokedPct() < r.RevokedPct() {
			t.Errorf("%s: sanctioned rate %.2f%% < overall %.2f%%", r.Org, r.SancRevokedPct(), r.RevokedPct())
		}
	}
}

// TestRussianCAImpact verifies §4.3: exactly 170 unique certificates from
// the Russian Trusted Root CA appear in scans, securing 130 .ru and 2 .рф
// domains, 36 of them sanctioned (34% of the list), against a much larger
// backdrop from other CAs.
func TestRussianCAImpact(t *testing.T) {
	f := getFixture(t)
	rep := RussianCAImpact(f.archive, f.w.Sanctions)
	if rep.UniqueCerts != 170 {
		t.Errorf("unique Russian CA certs = %d, want 170", rep.UniqueCerts)
	}
	if rep.RuDomains != 130 {
		t.Errorf(".ru domains = %d, want 130", rep.RuDomains)
	}
	if rep.RFDomains != 2 {
		t.Errorf(".рф domains = %d, want 2", rep.RFDomains)
	}
	if rep.SanctionedCerts != 36 {
		t.Errorf("sanctioned certs = %d, want 36", rep.SanctionedCerts)
	}
	coverage := 100 * float64(rep.SanctionedDomains) / 107
	within(t, "sanctioned list coverage", coverage, 34, 3)
	if rep.BackdropCerts <= rep.UniqueCerts {
		t.Errorf("backdrop = %d certs, want ≫ 170", rep.BackdropCerts)
	}
	// None of the Russian CA's certificates may appear in the CT log.
	inCT := f.w.CTLog.Scan(0, f.w.CTLog.Size(), func(c *pki.Certificate) bool {
		return c.RootOrg == pki.RussianTrustedRootCA
	})
	if len(inCT) != 0 {
		t.Errorf("%d Russian CA certs leaked into CT", len(inCT))
	}
}

// TestStoreCompression sanity-checks the epoch store against the naive
// one-record-per-sweep baseline on real pipeline output.
func TestStoreCompression(t *testing.T) {
	f := getFixture(t)
	st := f.store.Stats()
	if st.Epochs == 0 || st.NaiveRecords == 0 {
		t.Fatal("empty store stats")
	}
	ratio := float64(st.NaiveRecords) / float64(st.Epochs)
	if ratio < 3 {
		t.Errorf("compression ratio = %.1fx, want ≥ 3x on piecewise-constant configs", ratio)
	}
	t.Logf("store: %d domains, %d epochs, %d naive records (%.1fx)", st.Domains, st.Epochs, st.NaiveRecords, ratio)
}

// TestCTConsistencyAcrossCollection verifies the CT log is append-only
// across collection: after the fixture's sweeps its entries are exactly
// the world's logged certificates, in issuance order, each at its index.
func TestCTConsistencyAcrossCollection(t *testing.T) {
	f := getFixture(t)
	log := f.w.CTLog
	entries := log.Scan(0, log.Size(), nil)
	if len(entries) < 100 {
		t.Fatalf("CT log holds %d entries, too few to check", len(entries))
	}
	logged := f.w.Certs.Select(func(c *pki.Certificate) bool { return c.Logged })
	if len(entries) != len(logged) {
		t.Fatalf("CT log holds %d entries for %d logged certificates", len(entries), len(logged))
	}
	for i, e := range entries {
		if e.Index != int64(i) || e.Cert != logged[i] {
			t.Fatalf("entry %d (index %d) is certificate %d, want %d", i, e.Index, e.Cert.Serial, logged[i].Serial)
		}
	}
}

// TestAmazonSedoOscillation verifies the pre-conflict parking flip-flop
// the paper describes ("switch back and forth between Amazon and Sedo"):
// Amazon's share rises between late February and March 8 as parked
// domains flow back from Sedo.
func TestAmazonSedoOscillation(t *testing.T) {
	f := getFixture(t)
	series := f.an.ASNShareSeries([]simtime.Day{
		simtime.Date(2022, 2, 22),
		world.AmazonStmtDay,
	}, nil)
	feb22, mar8 := series[0], series[1]
	if mar8.Share(16509) <= feb22.Share(16509) {
		t.Errorf("amazon share did not rise into Mar 8: %.2f → %.2f",
			feb22.Share(16509), mar8.Share(16509))
	}
	if mar8.Share(47846) >= feb22.Share(47846) {
		t.Errorf("sedo share did not dip into Mar 8: %.2f → %.2f",
			feb22.Share(47846), mar8.Share(47846))
	}
}

// TestMailCollectedInFixture confirms the MX extension flowed through the
// default pipeline into the store and analyses.
func TestMailCollectedInFixture(t *testing.T) {
	f := getFixture(t)
	series := f.an.MailProviderSeries([]simtime.Day{simtime.StudyEnd}, nil)
	last := series[0]
	if last.WithMail == 0 {
		t.Fatal("no MX data collected")
	}
	coverage := 100 * float64(last.WithMail) / float64(last.Total)
	if coverage < 75 || coverage > 95 {
		t.Errorf("MX coverage = %.1f%%, want ≈88%%", coverage)
	}
	top := TopMailZones(series, 1)
	if len(top) != 1 || top[0] != "yandex.net." {
		t.Errorf("top mail zone = %v, want yandex.net.", top)
	}
}
