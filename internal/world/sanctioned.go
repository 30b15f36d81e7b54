package world

import (
	"fmt"

	"whereru/internal/sanctions"
	"whereru/internal/simtime"
)

// numSanctioned is the number of sanctioned domains (§3.3).
const numSanctioned = 107

// sanctionedDraft writes the i-th sanctioned domain into d, with the
// hosting and name-service history the paper reports:
//
//   - 101 of 107 hosted exclusively in Russian ASNs before the conflict;
//     three more become fully Russian-hosted by May 25; the final three
//     remain hosted in Germany, the Czech Republic and Estonia.
//   - On Feb 24: 34.0% partial and 5.2% non-Russian name service; by
//     March 4, 93.8% fully Russian — driven almost entirely by Netnod
//     dropping its RU-CENTER secondary service.
//
// Sanctioned domains are appended to the same table and serving fabric as
// the generated population, so every analysis sees them via measurement.
func sanctionedDraft(i int, d *draft) {
	var host, dns, dnsDest string
	var moveHost, moveDNS simtime.Day // 0 = hosting never changes, DNS follows only global events
	switch {
	case i < 40: // fully Russian DNS + hosting throughout
		host, dns = "rucenter", "rucenter"
	case i < 65:
		host, dns = "regru", "regru"
	case i < 99: // 34 partial via Netnod secondaries (cut off Mar 3)
		host, dns = "rucenter", "rucenter-netnod"
	case i == 99 || i == 100: // partial via self+cloudflare
		host, dns = "rupool1", "self-cloudflare"
		if i == 99 { // one repatriates by Mar 4 (the 100th full domain)
			moveDNS, dnsDest = SanctionedNSMoved, "rucenter"
		}
	case i == 101: // foreign-hosted (DE), becomes RU-hosted in April
		host, dns = "hetzner", "godaddy"
		moveHost = simtime.Date(2022, 4, 10)
	case i == 102: // foreign-hosted (PL), becomes RU-hosted in May
		host, dns = "homepl", "godaddy"
		moveHost = simtime.Date(2022, 5, 2)
	case i == 103: // foreign-hosted (DE), becomes RU-hosted in April
		host, dns = "hetzner", "cloudflare"
		moveHost = simtime.Date(2022, 4, 20)
	case i == 104: // remains in Germany
		host, dns = "hetzner", "godaddy"
	case i == 105: // remains in the Czech Republic
		host, dns = "wedos", "cloudflare"
	default: // 106: remains in Estonia
		host, dns = "zoneee", "hetznerdns"
	}

	// Sanctioned names are real long-standing registrations.
	created := simtime.Date(2012, 6, 1)
	*d = draft{
		Name:    fmt.Sprintf("sanctioned%03d.ru.", i),
		Created: created,
		epochs:  append(d.epochs[:0], epoch{created, profileNum(dnsKeys, dns), profileNum(hostKeys, host)}),
	}
	// Netnod cutoff applies to sanctioned domains too (§3.3: "nearly
	// all of them had an authoritative hosted by Netnod until the
	// change to full Russian on March 4").
	if dns == "rucenter-netnod" {
		d.setConfig(NetnodCutoffDay, "rucenter", "")
	}
	if moveDNS != 0 {
		d.setConfig(moveDNS, dnsDest, "")
	}
	if moveHost != 0 {
		d.setConfig(moveHost, "", "rucenter")
	}
}

// sanctionedEntity is the i-th sanctioned domain's listed entity, and its
// registrant.
func sanctionedEntity(i int) string { return fmt.Sprintf("Sanctioned Entity %03d", i) }

// buildSanctioned lists the sanctioned domains on the OFAC/UK list.
func (w *World) buildSanctioned() {
	for i := 0; i < numSanctioned; i++ {
		authority := sanctions.USOFAC
		if i%3 == 0 {
			authority |= sanctions.UKSanctions
		} else if i%7 == 0 {
			authority = sanctions.UKSanctions
		}
		listed := simtime.Date(2022, 2, 25)
		if i%5 == 0 {
			listed = simtime.Date(2022, 3, 11)
		}
		w.Sanctions.Add(sanctions.Entry{
			Domain:      w.domains.Name(w.domains.sanctioned + i),
			Entity:      sanctionedEntity(i),
			Listed:      listed,
			Authorities: authority,
		})
	}
}
