package zone

import "whereru/internal/dns"

// Diff compares two zone snapshots (e.g. consecutive daily TLD zone
// files) and reports added and removed records — the primitive behind
// "what changed in .ru today" monitoring.
type Diff struct {
	// Added are records present in the new zone only.
	Added []dns.RR
	// Removed are records present in the old zone only.
	Removed []dns.RR
}

// Compare computes new − old and old − new. Records are matched by
// (name, type, rendered RDATA); TTL changes alone do not count as
// differences, mirroring how zone-diff tooling treats refresh noise.
func Compare(old, new *Zone) Diff {
	key := func(rr dns.RR) string {
		return rr.Name + "\x00" + rr.Type.String() + "\x00" + rr.Data.String()
	}
	collect := func(z *Zone) map[string]dns.RR {
		out := make(map[string]dns.RR)
		for _, name := range z.Names() {
			for _, typ := range []dns.Type{dns.TypeSOA, dns.TypeNS, dns.TypeA, dns.TypeAAAA, dns.TypeCNAME, dns.TypeMX, dns.TypeTXT} {
				for _, rr := range z.Lookup(name, typ) {
					out[key(rr)] = rr
				}
			}
		}
		return out
	}
	oldSet := collect(old)
	newSet := collect(new)
	var d Diff
	for k, rr := range newSet {
		if _, ok := oldSet[k]; !ok {
			d.Added = append(d.Added, rr)
		}
	}
	for k, rr := range oldSet {
		if _, ok := newSet[k]; !ok {
			d.Removed = append(d.Removed, rr)
		}
	}
	dns.SortRRs(d.Added)
	dns.SortRRs(d.Removed)
	return d
}

// ChangedDelegations returns the owner names whose NS sets differ between
// the two zones — the registry-level view of a diff (new registrations,
// deletions, and name-server changes).
func ChangedDelegations(old, new *Zone) []string {
	d := Compare(old, new)
	seen := map[string]bool{}
	var out []string
	note := func(rr dns.RR) {
		if rr.Type == dns.TypeNS && rr.Name != old.Origin && rr.Name != new.Origin && !seen[rr.Name] {
			seen[rr.Name] = true
			out = append(out, rr.Name)
		}
	}
	for _, rr := range d.Added {
		note(rr)
	}
	for _, rr := range d.Removed {
		note(rr)
	}
	return out
}
