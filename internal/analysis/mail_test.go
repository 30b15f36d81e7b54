package analysis

import (
	"context"
	"testing"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// mailFixture collects two MX-enabled sweeps over a small world.
func mailFixture(t *testing.T) (*Analyzer, []simtime.Day) {
	t.Helper()
	w, err := world.Build(world.Config{Seed: 9, Scale: 10000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	st := store.New()
	pipe := &openintel.Pipeline{
		Resolver:  w.NewResolver(),
		Seeds:     w.Registries,
		Clock:     w.Clock(),
		Store:     st,
		Workers:   4,
		CollectMX: true,
	}
	days := []simtime.Day{simtime.ConflictStart.Add(-7), world.GoogleStmtDay.Add(45)}
	if _, err := pipe.Run(context.Background(), days); err != nil {
		t.Fatal(err)
	}
	return &Analyzer{Store: st, Geo: w.Geo, Internet: w.Internet}, days
}

func TestMailProviderSeries(t *testing.T) {
	an, days := mailFixture(t)
	series := an.MailProviderSeries(days, nil)
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	pre := series[0]
	if pre.WithMail == 0 || pre.WithMail >= pre.Total {
		t.Fatalf("mail coverage = %d of %d, want a strict subset", pre.WithMail, pre.Total)
	}
	// Yandex dominates Russian domain mail.
	top := TopMailZones(series, 3)
	if len(top) == 0 || top[0] != "yandex.net." {
		t.Fatalf("top mail zones = %v, want yandex.net. leading", top)
	}
	// Google's share declines after its announcement.
	preG := pre.Share("googledomains.com.")
	postG := series[1].Share("googledomains.com.")
	if preG == 0 {
		t.Fatal("no Google Workspace mail before the conflict")
	}
	if postG >= preG {
		t.Errorf("google mail share %.2f → %.2f, want decline", preG, postG)
	}
}

func TestMXZone(t *testing.T) {
	cases := []struct{ in, want string }{
		{"mx.yandex.net.", "yandex.net."},
		{"aspmx.googledomains.com", "googledomains.com."},
		{"mxs.mail.ru.", "mail.ru."},
	}
	for _, c := range cases {
		if got := MXZone(c.in); got != c.want {
			t.Errorf("MXZone(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestHHI(t *testing.T) {
	if got := HHI(map[string]int{}); got != 0 {
		t.Errorf("empty HHI = %v", got)
	}
	if got := HHI(map[string]int{"a": 10}); got != 1.0 {
		t.Errorf("monopoly HHI = %v, want 1", got)
	}
	got := HHI(map[string]int{"a": 1, "b": 1, "c": 1, "d": 1})
	if got < 0.2499 || got > 0.2501 {
		t.Errorf("four-way HHI = %v, want 0.25", got)
	}
	// More concentration → higher HHI.
	even := HHI(map[string]int{"a": 50, "b": 50})
	skew := HHI(map[string]int{"a": 90, "b": 10})
	if skew <= even {
		t.Errorf("HHI(90/10)=%v ≤ HHI(50/50)=%v", skew, even)
	}
}

func TestCAConcentrationJumps(t *testing.T) {
	w, err := world.Build(world.Config{Seed: 9, Scale: 2000, RFShare: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	points := CAConcentration(w.CTLog)
	if len(points) != 3 {
		t.Fatalf("points = %d", len(points))
	}
	pre, post := points[0], points[2]
	// Let's Encrypt already dominates pre-conflict (share ≈ 91.6% → HHI ≈
	// 0.84) and the market concentrates further after sanctions.
	if pre.HHI < 0.75 {
		t.Errorf("pre-conflict CA HHI = %.3f, want ≥ 0.75", pre.HHI)
	}
	if post.HHI <= pre.HHI {
		t.Errorf("CA HHI did not rise: %.4f → %.4f", pre.HHI, post.HHI)
	}
	if post.Top1Share < 98 {
		t.Errorf("post-sanctions top-1 share = %.1f%%, want ≥ 98%%", post.Top1Share)
	}
	if pre.Participants <= 3 {
		t.Errorf("pre-conflict participants = %d, want a long tail", pre.Participants)
	}
}

func TestHostingConcentrationStable(t *testing.T) {
	f := getFixture(t)
	days := []simtime.Day{simtime.StudyStart, simtime.StudyEnd}
	points := f.an.HostingConcentration(days, nil)
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// Hosting is diverse: dozens of ASNs, no monopoly.
		if p.HHI > 0.2 {
			t.Errorf("hosting HHI on %s = %.3f, implausibly concentrated", p.Day, p.HHI)
		}
		if p.Participants < 10 {
			t.Errorf("hosting participants on %s = %d", p.Day, p.Participants)
		}
	}
	// §6: hosting concentration changes are modest across the window.
	if d := points[1].HHI - points[0].HHI; d > 0.05 || d < -0.05 {
		t.Errorf("hosting HHI moved %.3f over the window, want ≈ stable", d)
	}
}
