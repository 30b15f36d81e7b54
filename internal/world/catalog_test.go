package world

import (
	"testing"

	"whereru/internal/dns"
)

// These tests pin internal consistency of the static tables: every weight
// references an existing profile, every profile references existing
// providers, no two providers collide on ASN or NS zone, and event
// destinations are valid. They catch the class of bug where a calibration
// edit silently breaks resolution for a slice of the population.

func TestCatalogASNsUnique(t *testing.T) {
	seen := map[uint32]string{}
	for _, p := range Catalog() {
		if prev, dup := seen[uint32(p.ASN)]; dup {
			t.Errorf("AS%d claimed by both %s and %s", p.ASN, prev, p.Key)
		}
		seen[uint32(p.ASN)] = p.Key
	}
}

// encodable reports whether the DNS encoder writes n as a question: a
// fully qualified name whose labels are 1–63 printable octets and whose
// wire form fits in 255.
func encodable(n string) bool {
	m := &dns.Message{Questions: []dns.Question{{Name: n, Type: dns.TypeA, Class: dns.ClassIN}}}
	_, err := m.Encode()
	return err == nil
}

func TestCatalogNSNamesValid(t *testing.T) {
	for _, p := range Catalog() {
		for _, n := range p.NSNames {
			if !encodable(n) {
				t.Errorf("%s: invalid NS name %q", p.Key, n)
			}
			if dns.CountLabels(n) < 3 {
				t.Errorf("%s: NS name %q too shallow to anchor a zone", p.Key, n)
			}
		}
		if p.MailHost != "" {
			if !encodable(p.MailHost) {
				t.Errorf("%s: invalid mail host %q", p.Key, p.MailHost)
			}
		}
	}
}

func TestCatalogNSZonesUnique(t *testing.T) {
	// Each NS-name parent zone must belong to exactly one provider, or
	// TLD delegation becomes ambiguous.
	zones := map[string]string{}
	for _, p := range Catalog() {
		for _, n := range p.NSNames {
			zone := dns.Parent(n)
			if prev, dup := zones[zone]; dup && prev != p.Key {
				t.Errorf("zone %s claimed by both %s and %s", zone, prev, p.Key)
			}
			zones[zone] = p.Key
		}
	}
}

func TestMailHostsAnchoredInProviderZones(t *testing.T) {
	for _, p := range Catalog() {
		if p.MailHost == "" {
			continue
		}
		zone := dns.Parent(p.MailHost)
		anchored := false
		for _, n := range p.NSNames {
			if dns.Parent(n) == zone {
				anchored = true
			}
		}
		if !anchored {
			t.Errorf("%s: mail host %s not under any of the provider's NS zones", p.Key, p.MailHost)
		}
	}
}

func TestDNSProfilesReferenceProviders(t *testing.T) {
	keys := map[string]bool{}
	for _, p := range Catalog() {
		keys[p.Key] = true
	}
	for profile, providers := range dnsProfiles {
		if len(providers) == 0 {
			t.Errorf("profile %q has no providers", profile)
		}
		for _, k := range providers {
			if !keys[k] {
				t.Errorf("profile %q references unknown provider %q", profile, k)
			}
		}
	}
	for profile, providers := range hostProfiles {
		if len(providers) == 0 {
			t.Errorf("host profile %q has no providers", profile)
		}
		for _, k := range providers {
			if !keys[k] {
				t.Errorf("host profile %q references unknown provider %q", profile, k)
			}
		}
	}
}

func TestWeightTablesReferenceProfiles(t *testing.T) {
	for name, table := range map[string][]weighted{
		"dnsWeightsEarly": dnsWeightsEarly,
		"dnsWeightsLate":  dnsWeightsLate,
	} {
		total := 0.0
		for _, w := range table {
			if _, ok := dnsProfiles[w.key]; !ok {
				t.Errorf("%s: unknown DNS profile %q", name, w.key)
			}
			if w.weight <= 0 {
				t.Errorf("%s: non-positive weight for %q", name, w.key)
			}
			total += w.weight
		}
		if total < 80 || total > 120 {
			t.Errorf("%s: weights sum to %.1f, want ≈100", name, total)
		}
	}
	for name, table := range map[string][]weighted{
		"hostWeightsEarly": hostWeightsEarly,
		"hostWeightsLate":  hostWeightsLate,
	} {
		total := 0.0
		for _, w := range table {
			if _, ok := hostProfiles[w.key]; !ok {
				t.Errorf("%s: unknown host profile %q", name, w.key)
			}
			total += w.weight
		}
		if total < 95 || total > 105 {
			t.Errorf("%s: weights sum to %.1f, want ≈100", name, total)
		}
	}
}

func TestRepatriationDestinationsValid(t *testing.T) {
	for _, k := range fullRUDNSProfiles {
		if _, ok := dnsProfiles[k]; !ok {
			t.Errorf("repatriation DNS destination %q missing from dnsProfiles", k)
		}
		if _, ok := hostProfiles[k]; !ok {
			t.Errorf("repatriation host destination %q missing from hostProfiles", k)
		}
	}
	for k := range tldFullDNSProfiles {
		provs, ok := dnsProfiles[k]
		if !ok {
			t.Fatalf("tldFullDNSProfiles references unknown profile %q", k)
		}
		// Every NS name in a TLD-full profile must be under a Russian TLD.
		cat := map[string]*Provider{}
		for _, p := range Catalog() {
			cat[p.Key] = p
		}
		for _, pk := range provs {
			for _, n := range cat[pk].NSNames {
				tld := dns.TLD(n)
				if tld != "ru" && tld != "su" && tld != "xn--p1ai" {
					t.Errorf("profile %q marked TLD-full but %s has NS %s under .%s", k, pk, n, tld)
				}
			}
		}
	}
}

func TestSampleWeightedCoversTable(t *testing.T) {
	table := []weighted{{"a", 1}, {"b", 2}, {"c", 1}}
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		counts[sampleWeighted(table, float64(i)/4000)]++
	}
	if counts["a"] == 0 || counts["b"] == 0 || counts["c"] == 0 {
		t.Fatalf("sampleWeighted missed keys: %v", counts)
	}
	if counts["b"] < counts["a"] || counts["b"] < counts["c"] {
		t.Errorf("weights not respected: %v", counts)
	}
	// Boundary draws.
	if got := sampleWeighted(table, 0); got != "a" {
		t.Errorf("u=0 → %q", got)
	}
	if got := sampleWeighted(table, 0.9999999); got != "c" {
		t.Errorf("u→1 → %q", got)
	}
}

func TestDomainEpochsInvariants(t *testing.T) {
	w := getWorld(t)
	for d := range w.NumDomains() {
		name, es := w.domains.Name(d), w.domains.epochsOf(d)
		if len(es) == 0 {
			t.Fatalf("%s has no epochs", name)
		}
		if created := w.domains.Record(d).Created; es[0].From != created {
			t.Fatalf("%s first epoch %v != created %v", name, es[0].From, created)
		}
		for i := 1; i < len(es); i++ {
			if es[i].From <= es[i-1].From {
				t.Fatalf("%s epochs out of order at %d", name, i)
			}
		}
		for _, e := range es {
			if int(e.DNS) >= len(dnsKeys) {
				t.Fatalf("%s epoch references unknown DNS profile %d", name, e.DNS)
			}
			if int(e.Host) >= len(hostKeys) {
				t.Fatalf("%s epoch references unknown host profile %d", name, e.Host)
			}
		}
	}
}
