package world

import (
	"fmt"
	"math/rand"
	"sort"

	"whereru/internal/idn"
	"whereru/internal/simtime"
)

// eraSplitDay separates the "early" and "late" configuration-weight eras;
// configurations chosen from 2020 on use the late tables, which drives the
// paper's slow TLD-dependency trends (Figures 2 and 3).
var eraSplitDay = simtime.Date(2020, 1, 1)

// churnCutoff ends baseline provider churn; from here on, configuration
// changes come from the explicit 2022 event timeline.
var churnCutoff = simtime.Date(2022, 2, 1)

// draft is one domain's history while it is generated: genDomain and
// sanctionedDraft write it, and Build appends it to the domain table.
type draft struct {
	// Name is canonical and ACE-encoded.
	Name string
	// Created and Removed bound the registration (Removed 0 = live).
	Created simtime.Day
	Removed simtime.Day
	// epochs is sorted by From; epochs[0].From == Created.
	epochs []epoch
}

// ConfigAt returns the configuration in force on day.
func (d *draft) ConfigAt(day simtime.Day) (epoch, bool) {
	if d.Created > day || d.Removed != 0 && day >= d.Removed {
		return epoch{}, false
	}
	return configIn(d.epochs, day)
}

// setConfig inserts a configuration change at day, replacing any changes
// scheduled at the same day and keeping epochs sorted. Empty keys inherit
// from the configuration in force at day.
func (d *draft) setConfig(day simtime.Day, dns, host string) {
	cur, ok := d.ConfigAt(day)
	if !ok {
		// The domain is not registered on that day (e.g. an event's
		// delayed move landing after the registration lapsed): drop the
		// change rather than record an epoch nobody can serve.
		return
	}
	e := epoch{From: day, DNS: cur.DNS, Host: cur.Host}
	if dns != "" {
		e.DNS = profileNum(dnsKeys, dns)
	}
	if host != "" {
		e.Host = profileNum(hostKeys, host)
	}
	if cur.DNS == e.DNS && cur.Host == e.Host {
		return
	}
	i := sort.Search(len(d.epochs), func(i int) bool { return d.epochs[i].From >= day })
	if i < len(d.epochs) && d.epochs[i].From == day {
		d.epochs[i] = e
		return
	}
	d.epochs = append(d.epochs, epoch{})
	copy(d.epochs[i+1:], d.epochs[i:])
	d.epochs[i] = e
}

// dnsGeneral filters a DNS weight table down to the profiles sampled when
// hosting does not force the DNS choice (Cloudflare/Sedo/Amazon/Google
// DNS arrives via hosting correlation instead).
func dnsGeneral(table []weighted) []weighted {
	out := make([]weighted, 0, len(table))
	for _, w := range table {
		switch w.key {
		case "cloudflare", "sedodns", "amazonr53", "googledns":
			continue
		}
		out = append(out, w)
	}
	return out
}

var (
	dnsGeneralEarly = dnsGeneral(dnsWeightsEarly)
	dnsGeneralLate  = dnsGeneral(dnsWeightsLate)
)

// fullRUDNSProfiles are destinations for repatriation moves (also valid
// hosting-profile keys, used for hosting relocations).
var fullRUDNSProfiles = []string{
	"regru", "rucenter", "timeweb", "beget", "sprinthost", "rupool1", "rupool2", "rupool3",
}

// repatriationDNS picks the DNS destination for a conflict-driven
// repatriation: mostly domestic providers whose NS names still span
// non-Russian TLDs (so the geo composition jumps while the TLD
// composition barely moves — the paper's Figure 1 vs Figure 2 contrast).
func repatriationDNS(rng *rand.Rand) string {
	if rng.Float64() < 0.75 {
		return "beget-mixed"
	}
	return fullRUDNSProfiles[rng.Intn(len(fullRUDNSProfiles))]
}

func dnsGeneralTable(day simtime.Day) []weighted {
	if day < eraSplitDay {
		return dnsGeneralEarly
	}
	return dnsGeneralLate
}

func hostTable(day simtime.Day) []weighted {
	if day < eraSplitDay {
		return hostWeightsEarly
	}
	return hostWeightsLate
}

// pickDNSFor samples a DNS profile consistent with the hosting choice.
func pickDNSFor(host string, day simtime.Day, rng *rand.Rand) string {
	switch host {
	case "cloudflare":
		return "cloudflare"
	case "sedo":
		return "sedodns"
	case "amazon":
		if rng.Float64() < 0.6 {
			return "amazonr53"
		}
	case "google", "googlecloud2":
		if rng.Float64() < 0.7 {
			return "googledns"
		}
	}
	return sampleWeighted(dnsGeneralTable(day), rng.Float64())
}

// genName builds the i-th domain name: ~RFShare of names are Cyrillic
// labels punycode-encoded under .рф, the rest synthetic .ru names.
func (w *World) genName(i int, rng *rand.Rand) string {
	if rng.Float64() < w.cfg.RFShare {
		label, err := idn.EncodeLabel(fmt.Sprintf("домен%d", i))
		if err == nil {
			return label + "." + idn.RFTLDASCII + "."
		}
	}
	return fmt.Sprintf("domain%07d.ru.", i)
}

// domainSeed is the i-th domain's own generator seed: a domain's history
// depends on the world seed and its index only, never on how many domains
// are generated or what the ones before it drew.
func (w *World) domainSeed(i int) int64 {
	return w.cfg.Seed ^ (int64(i)+1)*0x5851F42D4C957F2D
}

// genDomain deterministically writes the i-th domain's full history
// (lifecycle, initial profiles, baseline churn, 2022 events) into d, from
// rng, which the caller has seeded with domainSeed(i). d's epoch slice is
// reused.
func (w *World) genDomain(i int, rng *rand.Rand, d *draft) {
	*d = draft{Name: w.genName(i, rng), epochs: d.epochs[:0]}

	start, end := simtime.StudyStart, simtime.StudyEnd
	window := end.Sub(start)
	// 62% of all names predate the study window (≈4.95M of 8M... here of
	// 11.7M unique the standing stock is ~42%, but heavy parking churn
	// means most transient names live inside the window).
	if rng.Float64() < 0.42 {
		d.Created = start.Add(-1 - rng.Intn(2500))
		if rng.Float64() < 0.12 {
			d.Removed = start.Add(1 + rng.Intn(window))
		}
	} else {
		// Transient (heavily parking-driven) registrations inside the
		// window: short-lived, keeping the standing stock near the
		// paper's ≈5M while unique names reach 11.7M (scaled).
		d.Created = start.Add(1 + rng.Intn(window-1))
		if rng.Float64() < 0.95 {
			rem := d.Created.Add(21 + rng.Intn(240))
			if rem < end {
				d.Removed = rem
			}
		}
	}

	// Initial configuration, with 2022 new-registration preferences
	// (the paper's §3.4 influxes of newly registered domains).
	host := sampleWeighted(hostTable(d.Created), rng.Float64())
	if d.Created >= simtime.ConflictStart {
		switch {
		case d.Created >= AmazonStmtDay && rng.Float64() < 0.003:
			host = "amazon"
		case d.Created >= GoogleStmtDay && rng.Float64() < 0.001:
			host = "google"
		case d.Created >= CloudflareStmtDay && rng.Float64() < 0.06:
			host = "cloudflare"
		}
	}
	dns := pickDNSFor(host, d.Created, rng)
	d.epochs = append(d.epochs, epoch{d.Created, profileNum(dnsKeys, dns), profileNum(hostKeys, host)})

	// Baseline churn: a combined provider-change process at ~12%/year,
	// 7:5 hosting:DNS, up to churnCutoff.
	t := d.Created
	if t < start {
		t = start
	}
	for {
		wait := rng.ExpFloat64() * 365.0 / 0.12
		t = t.Add(int(wait) + 1)
		if t >= churnCutoff || (d.Removed != 0 && t >= d.Removed) {
			break
		}
		if rng.Float64() < 7.0/12.0 {
			h := sampleWeighted(hostTable(t), rng.Float64())
			d.setConfig(t, "", h)
			// Hosting moves to integrated providers drag DNS along.
			switch h {
			case "cloudflare", "sedo":
				d.setConfig(t, pickDNSFor(h, t, rng), h)
			}
		} else {
			d.setConfig(t, sampleWeighted(dnsGeneralTable(t), rng.Float64()), "")
		}
	}

	// Gradual TLD-dependency drift (Figure 2): domains on purely
	// Russian-TLD name service slowly pick up infrastructure named under
	// non-Russian TLDs (partial +7.9 points over the window), without
	// moving their geography.
	t = d.Created
	if t < start {
		t = start
	}
	for {
		t = t.Add(int(rng.ExpFloat64()*365.0/0.032) + 1)
		if t >= churnCutoff || (d.Removed != 0 && t >= d.Removed) {
			break
		}
		cfg, ok := d.ConfigAt(t)
		if !ok || !tldFullDNSProfiles[cfg.dnsKey()] {
			continue
		}
		var dest string
		switch r := rng.Float64(); {
		case r < 0.40:
			dest = "ru-pro"
		case r < 0.72:
			dest = "rupool2"
		case r < 0.92:
			dest = "beget-mixed"
		default:
			dest = "ru-net"
		}
		d.setConfig(t, dest, "")
	}

	w.applyEvents(d, rng)
}

// tldFullDNSProfiles are DNS profiles whose NS names sit entirely under
// Russian TLDs — the source population for the Figure 2 drift.
var tldFullDNSProfiles = map[string]bool{
	"regru": true, "rucenter": true, "timeweb": true, "sprinthost": true,
	"masterhost": true, "peterhost": true, "rupool1": true, "rupool3": true,
}

// applyEvents plays the 2022 conflict timeline against one domain, in
// chronological order. Probabilities are calibrated to the paper's §3
// observations; see calibration.go.
func (w *World) applyEvents(d *draft, rng *rand.Rand) {
	if d.Removed != 0 && d.Removed <= simtime.ConflictStart {
		return
	}
	// Domains in the §3.4 case-study sets stay in the zone through the
	// end of the window, as the paper's movement accounting implies
	// (98% + 1.6% of Sedo's set is still resolvable on May 25).
	if d.Removed != 0 && d.Removed > simtime.ConflictStart {
		for _, check := range []struct {
			day  simtime.Day
			host string
		}{
			{CloudflareStmtDay, "cloudflare"},
			{AmazonStmtDay, "amazon"},
			{SedoStmtDay.Add(-1), "sedo"},
			{GoogleStmtDay, "google"},
		} {
			if d.Removed > check.day {
				if cfg, ok := d.ConfigAt(check.day); ok && cfg.hostKey() == check.host {
					d.Removed = 0
					break
				}
			}
		}
	}

	// Pre-conflict parking oscillation between Amazon and Sedo (Fig 4).
	if cfg, ok := d.ConfigAt(simtime.Date(2022, 2, 18)); ok && cfg.hostKey() == "amazon" && rng.Float64() < 0.30 {
		d.setConfig(simtime.Date(2022, 2, 19).Add(rng.Intn(3)), "sedodns", "sedo")
	}
	if cfg, ok := d.ConfigAt(simtime.Date(2022, 3, 1)); ok && cfg.hostKey() == "sedo" && rng.Float64() < 0.25 {
		d.setConfig(simtime.Date(2022, 3, 2).Add(rng.Intn(3)), "amazonr53", "amazon")
	}

	// Anticipatory repatriation of partially-Russian DNS (§3.1: "many
	// domains with name servers partially outside Russia clearly
	// transition towards fully Russian").
	if cfg, ok := d.ConfigAt(simtime.Date(2022, 2, 23)); ok {
		var p float64
		switch cfg.dnsKey() {
		case "self-cloudflare":
			p = 0.25
		case "self-wedos":
			p = 0.30
		case "self-netnod":
			p = 0.35
		}
		if p > 0 && rng.Float64() < p {
			d.setConfig(simtime.ConflictStart.Add(rng.Intn(50)), repatriationDNS(rng), "")
		}
	}

	// Netnod stops serving its RU-CENTER secondary customers on the
	// exact cutoff day (§3.2: 76k domains partial → full on March 3).
	if cfg, ok := d.ConfigAt(NetnodCutoffDay.Add(-1)); ok && cfg.dnsKey() == "rucenter-netnod" {
		d.setConfig(NetnodCutoffDay, "rucenter", "")
	}

	// Cloudflare: business as usual — 94% remain; a stream of incomers.
	if cfg, ok := d.ConfigAt(CloudflareStmtDay); ok {
		if cfg.hostKey() == "cloudflare" {
			if rng.Float64() < 0.06 {
				dest := fullRUDNSProfiles[rng.Intn(len(fullRUDNSProfiles))]
				d.setConfig(CloudflareStmtDay.Add(1+rng.Intn(75)), dest, dest)
			}
		} else if rng.Float64() < float64(PaperNumbers.CloudflareNewIn)/PaperNumbers.ActiveDomainsEnd {
			d.setConfig(CloudflareStmtDay.Add(1+rng.Intn(75)), "cloudflare", "cloudflare")
		}
	}

	// Amazon: stops new RU/BY registrations Mar 8; >half of the hosted
	// set relocates, 43% remains; some existing domains move in.
	if cfg, ok := d.ConfigAt(AmazonStmtDay); ok {
		if cfg.hostKey() == "amazon" {
			if rng.Float64() < 1-PaperNumbers.AmazonRemainPct/100 {
				dest := "serverel"
				switch r := rng.Float64(); {
				case r < 0.45:
					dest = "rupool" + string(rune('1'+rng.Intn(3)))
				case r < 0.60:
					dest = "digitalocean"
				}
				d.setConfig(AmazonStmtDay.Add(2+rng.Intn(70)), "", dest)
			}
		} else if cfg.hostKey() != "sedo" && rng.Float64() < float64(PaperNumbers.AmazonRelocatedIn)/PaperNumbers.ActiveDomainsEnd {
			d.setConfig(AmazonStmtDay.Add(7+rng.Intn(60)), "amazonr53", "amazon")
		}
	}

	// Sedo pulls the plug Mar 9: 98.4% relocate (mostly to Serverel, NL),
	// 1.6% remain; a few hundred external names move in.
	if cfg, ok := d.ConfigAt(SedoStmtDay.Add(-1)); ok {
		if cfg.hostKey() == "sedo" {
			if rng.Float64() < 1-PaperNumbers.SedoRemainPct/100 {
				dest, dnsDest := "serverel", "serverel"
				switch r := rng.Float64(); {
				case r < 0.20:
					dest = "rupool" + string(rune('1'+rng.Intn(3)))
					dnsDest = dest
				case r < 0.25:
					dest, dnsDest = "amazon", "amazonr53"
				case r < 0.32:
					dest, dnsDest = "digitalocean", ""
				}
				d.setConfig(SedoStmtDay.Add(rng.Intn(45)), dnsDest, dest)
			}
		} else if cfg.hostKey() != "amazon" && rng.Float64() < float64(PaperNumbers.SedoRelocatedIn)/PaperNumbers.ActiveDomainsEnd {
			d.setConfig(SedoStmtDay.Add(10+rng.Intn(50)), "sedodns", "sedo")
		}
	}

	// Google: stops new customers Mar 10; 57.1% of hosted names relocate,
	// 75.2% of those merely to Google's other ASN around Mar 16.
	if cfg, ok := d.ConfigAt(GoogleStmtDay); ok {
		if cfg.hostKey() == "google" {
			if rng.Float64() < PaperNumbers.GoogleRelocatePct/100 {
				if rng.Float64() < PaperNumbers.GoogleIntraPct/100 {
					d.setConfig(GoogleIntraDay, "", "googlecloud2")
				} else {
					dest := fullRUDNSProfiles[rng.Intn(len(fullRUDNSProfiles))]
					d.setConfig(GoogleStmtDay.Add(2+rng.Intn(60)), "", dest)
				}
			}
		} else if rng.Float64() < float64(PaperNumbers.GoogleExternalIn)/PaperNumbers.ActiveDomainsEnd {
			d.setConfig(GoogleStmtDay.Add(5+rng.Intn(60)), "googledns", "google")
		}
	}

	// End-of-March migrations out of Hetzner and Linode DNS hosting
	// (§3.2); partially-Russian customers repatriate.
	if cfg, ok := d.ConfigAt(HetznerExitDay.Add(-1)); ok {
		switch cfg.dnsKey() {
		case "self-hetzner":
			if rng.Float64() < 0.75 {
				d.setConfig(HetznerExitDay.Add(rng.Intn(10)), repatriationDNS(rng), "")
			}
		case "hetznerdns":
			if rng.Float64() < 0.40 {
				d.setConfig(HetznerExitDay.Add(rng.Intn(10)), "cloudflare", "")
			}
		}
	}
	if cfg, ok := d.ConfigAt(LinodeExitDay.Add(-1)); ok && cfg.dnsKey() == "self-linode" {
		if rng.Float64() < 0.60 {
			d.setConfig(LinodeExitDay.Add(rng.Intn(10)), repatriationDNS(rng), "")
		}
	}
}
