package world

import (
	"context"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/simtime"
)

func TestMailProviderDeterministic(t *testing.T) {
	w := getWorld(t)
	day := simtime.ConflictStart.Add(-30)
	var withMail, without int
	for d := range 500 {
		name := w.domains.Name(d)
		p1 := w.MailProviderFor(d, day)
		p2 := w.MailProviderFor(d, day)
		if p1 != p2 {
			t.Fatalf("mail provider for %s not deterministic", name)
		}
		if p1 == nil {
			without++
		} else {
			withMail++
			if p1.MailHost == "" {
				t.Fatalf("mail provider %s has no mail host", p1.Key)
			}
		}
	}
	// ≈88% of domains publish MX.
	if withMail < 350 || without < 20 {
		t.Errorf("mail split = %d with / %d without, want ≈88/12", withMail, without)
	}
}

func TestMailDominatedByDomesticProviders(t *testing.T) {
	w := getWorld(t)
	day := simtime.ConflictStart.Add(-30)
	counts := map[string]int{}
	for d := range w.NumDomains() {
		if !w.domains.ActiveOn(d, day) {
			continue
		}
		if p := w.MailProviderFor(d, day); p != nil {
			counts[p.Key]++
		}
	}
	if counts["yandex"] <= counts["google"] {
		t.Errorf("yandex mail (%d) should dominate google (%d)", counts["yandex"], counts["google"])
	}
	if counts["mailru"] == 0 {
		t.Error("no Mail.ru customers")
	}
}

func TestGoogleWorkspaceMigration(t *testing.T) {
	w := getWorld(t)
	before := GoogleStmtDay.Add(-5)
	after := GoogleStmtDay.Add(30)
	moved := 0
	stayed := 0
	for d := range w.NumDomains() {
		name := w.domains.Name(d)
		if !w.domains.ActiveOn(d, after) {
			continue
		}
		pb := w.MailProviderFor(d, before)
		pa := w.MailProviderFor(d, after)
		if pb != nil && pb.Key == "google" {
			if pa != nil && pa.Key != "google" {
				moved++
				if pa.Country != "RU" {
					t.Errorf("google-mail domain %s moved to non-RU provider %s", name, pa.Key)
				}
			} else {
				stayed++
			}
		}
	}
	if moved == 0 {
		t.Error("no Google Workspace migrations after the announcement")
	}
	if stayed == 0 {
		t.Error("every Google Workspace customer left; expected a partial move")
	}
}

func TestMXServedOverDNS(t *testing.T) {
	w := getWorld(t)
	day := simtime.ConflictStart
	w.Clock().Set(day)
	r := w.NewResolver()
	ctx := context.Background()

	checked := 0
	for d := range w.NumDomains() {
		if checked >= 20 {
			break
		}
		name := w.domains.Name(d)
		if !w.domains.ActiveOn(d, day) {
			continue
		}
		want := w.MailProviderFor(d, day)
		res, err := r.Resolve(ctx, name, dns.TypeMX)
		if err != nil {
			t.Fatalf("MX(%s): %v", name, err)
		}
		if want == nil {
			if len(res.Answers) != 0 {
				t.Fatalf("%s should publish no MX, got %v", name, res.Answers)
			}
		} else {
			if len(res.Answers) != 1 {
				t.Fatalf("%s MX answers = %v", name, res.Answers)
			}
			mx := res.Answers[0].Data.(dns.MXData)
			if mx.Host != want.MailHost {
				t.Fatalf("%s MX = %s, want %s", name, mx.Host, want.MailHost)
			}
			// The MX target must itself resolve.
			addrs, err := r.LookupHost(ctx, mx.Host, 0)
			if err != nil || len(addrs) == 0 {
				t.Fatalf("MX target %s unresolvable: %v", mx.Host, err)
			}
			if addrs[0] != want.MailAddr {
				t.Fatalf("MX target %s = %v, want %v", mx.Host, addrs[0], want.MailAddr)
			}
		}
		checked++
	}
	if checked < 20 {
		t.Fatalf("only checked %d domains", checked)
	}
}
