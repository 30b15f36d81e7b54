package world

import (
	"fmt"
	"slices"

	"whereru/internal/dns"
	"whereru/internal/dns/zone"
	"whereru/internal/registry"
	"whereru/internal/simtime"
)

// ExportZone materializes a TLD's zone file for one day — the "daily zone
// file snapshot" artifact the paper's pipeline is seeded from (§2). The
// zone carries the apex SOA/NS, one NS record per delegated registered
// domain per name server, and glue A records for in-bailiwick servers.
// The output round-trips through the zone-file parser, so it can be
// written to disk and consumed by any standard tooling.
func (w *World) ExportZone(tld string, day simtime.Day) (*zone.Zone, error) {
	origin := dns.Canonical(tld)
	label := dns.TLD(origin)
	i := slices.IndexFunc(w.Registries.Registries(), func(r *registry.Registry) bool { return r.TLD == origin })
	if i < 0 {
		return nil, fmt.Errorf("world: %q is not a registry TLD", tld)
	}
	reg := w.Registries.Registries()[i]

	z := zone.New(origin)
	// Replace the synthesized SOA with one whose serial encodes the
	// snapshot date, as registry zone files do.
	z.RemoveRRset(origin, dns.TypeSOA)
	y, m, d := day.YMD()
	serial := uint32(y*1000000 + m*10000 + d*100 + 1)
	if err := z.Add(dns.NewSOA(origin, "a.tld-servers."+origin, "hostmaster."+origin, serial)); err != nil {
		return nil, err
	}
	for i := range w.tldAddrs[label] {
		host := string(rune('a'+i)) + ".tld-servers." + origin
		if err := z.Add(dns.NewNS(origin, 172800, host)); err != nil {
			return nil, err
		}
		if err := z.Add(dns.NewA(host, 172800, w.tldAddrs[label][i])); err != nil {
			return nil, err
		}
	}

	glueDone := map[string]bool{}
	for _, name := range reg.ZoneSnapshot(day) {
		_, cfg, ok := w.domains.configOf(name, day)
		if !ok {
			continue
		}
		hosts, addrs := w.nsSetFor(dnsKeys[cfg.DNS])
		for i, h := range hosts {
			if err := z.Add(dns.NewNS(name, 3600, h)); err != nil {
				return nil, err
			}
			if dns.IsSubdomain(h, origin) && !glueDone[h] && i < len(addrs) {
				glueDone[h] = true
				if err := z.Add(dns.NewA(h, 3600, addrs[i])); err != nil {
					return nil, err
				}
			}
		}
	}
	return z, nil
}

// SeedsFromZone extracts the registered-domain inventory from a TLD zone
// snapshot: the owner names of delegation NS records (everything except
// the apex). This is how a zone file becomes a measurement seed list.
func SeedsFromZone(z *zone.Zone) []string {
	var out []string
	for _, name := range z.Names() {
		if name == z.Origin {
			continue
		}
		if len(z.Lookup(name, dns.TypeNS)) > 0 {
			out = append(out, name)
		}
	}
	return out
}
