package world

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"whereru/internal/dns"
	"whereru/internal/idn"
	"whereru/internal/openintel"
	"whereru/internal/registry"
	"whereru/internal/simtime"
)

// The oracle: the map-based domain records, with profiles by key, and
// the registry the table replaced, as they were (less DomainRec.setConfig,
// which lives on as draft.setConfig). buildOracle fills them from the same
// generator the way Build used to, and TestDomainTableMatchesOracle holds
// the table and the registry views over it to them.

// epochRec is one piecewise-constant configuration interval; it applies
// from From until the next epoch (or the end of the domain's life).
type epochRec struct {
	From simtime.Day
	// DNS is a key into dnsProfiles.
	DNS string
	// Host is a key into hostProfiles.
	Host string
}

// DomainRec is one simulated domain's full history.
type DomainRec struct {
	// Name is canonical and ACE-encoded.
	Name string
	// Created and Removed bound the registration (Removed 0 = live).
	Created simtime.Day
	Removed simtime.Day
	// Sanctioned marks the 107 sanctioned domains.
	Sanctioned bool
	// epochs is sorted by From; epochs[0].From == Created.
	epochs []epochRec
}

// ActiveOn reports whether the domain is registered on day.
func (d *DomainRec) ActiveOn(day simtime.Day) bool {
	return d.Created <= day && (d.Removed == 0 || day < d.Removed)
}

// ConfigAt returns the configuration in force on day.
func (d *DomainRec) ConfigAt(day simtime.Day) (epochRec, bool) {
	if !d.ActiveOn(day) {
		return epochRec{}, false
	}
	i := sort.Search(len(d.epochs), func(i int) bool { return d.epochs[i].From > day })
	if i == 0 {
		return epochRec{}, false
	}
	return d.epochs[i-1], true
}

// oracleDomain is one registered name and its lifecycle.
type oracleDomain registry.Domain

// ActiveOn reports whether the registration exists on day.
func (d *oracleDomain) ActiveOn(day simtime.Day) bool {
	return d.Created <= day && (d.Removed == 0 || day < d.Removed)
}

// oracleRegistry is one TLD's registration database.
type oracleRegistry struct {
	// TLD is the canonical zone ("ru." or "xn--p1ai.").
	TLD string

	mu      sync.RWMutex
	domains map[string]*oracleDomain
}

// newOracleRegistry creates an empty registry for a TLD.
func newOracleRegistry(tld string) *oracleRegistry {
	return &oracleRegistry{TLD: dns.Canonical(tld), domains: make(map[string]*oracleDomain)}
}

// Register creates a registration. Re-registering a deleted name is
// allowed (it resets the lifecycle, as redemption does in practice);
// registering a live name is an error.
func (r *oracleRegistry) Register(name string, day simtime.Day, registrant, registrar string) (*oracleDomain, error) {
	name = dns.Canonical(name)
	if !dns.IsSubdomain(name, r.TLD) || name == r.TLD {
		return nil, fmt.Errorf("registry %s: %s out of zone", r.TLD, name)
	}
	if dns.CountLabels(name) != dns.CountLabels(r.TLD)+1 {
		return nil, fmt.Errorf("registry %s: %s is not a direct child", r.TLD, name)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if d, ok := r.domains[name]; ok && (d.Removed == 0 || d.Removed > day) {
		return nil, fmt.Errorf("registry %s: %s already registered", r.TLD, name)
	}
	d := &oracleDomain{Name: name, Created: day, Registrant: registrant, Registrar: registrar}
	r.domains[name] = d
	return d, nil
}

// Remove deletes a registration effective on day.
func (r *oracleRegistry) Remove(name string, day simtime.Day) error {
	name = dns.Canonical(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	d, ok := r.domains[name]
	if !ok || d.Removed != 0 {
		return fmt.Errorf("registry %s: %s not registered", r.TLD, name)
	}
	d.Removed = day
	return nil
}

// Whois returns the registration record for name (a copy).
func (r *oracleRegistry) Whois(name string) (registry.Domain, bool) {
	name = dns.Canonical(name)
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.domains[name]
	if !ok {
		return registry.Domain{}, false
	}
	return registry.Domain(*d), true
}

// Count returns the number of registrations active on day.
func (r *oracleRegistry) Count(day simtime.Day) int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	n := 0
	for _, d := range r.domains {
		if d.ActiveOn(day) {
			n++
		}
	}
	return n
}

// ZoneSnapshot returns the sorted names active on day — the daily zone
// file used to seed a measurement sweep.
func (r *oracleRegistry) ZoneSnapshot(day simtime.Day) []string {
	r.mu.RLock()
	out := make([]string, 0, len(r.domains))
	for _, d := range r.domains {
		if d.ActiveOn(day) {
			out = append(out, d.Name)
		}
	}
	r.mu.RUnlock()
	sort.Strings(out)
	return out
}

// oracleGroup bundles several registries behind one inventory and whois
// interface.
type oracleGroup struct {
	registries []*oracleRegistry
}

// ForName returns the member registry whose TLD contains name.
func (g *oracleGroup) ForName(name string) (*oracleRegistry, bool) {
	name = dns.Canonical(name)
	for _, r := range g.registries {
		if dns.IsSubdomain(name, r.TLD) {
			return r, true
		}
	}
	return nil, false
}

// Whois looks the name up in the owning registry.
func (g *oracleGroup) Whois(name string) (registry.Domain, bool) {
	r, ok := g.ForName(name)
	if !ok {
		return registry.Domain{}, false
	}
	return r.Whois(name)
}

// ZoneSnapshot concatenates the members' snapshots (sorted within each
// TLD, TLDs in group order — matching how zone files arrive per TLD).
func (g *oracleGroup) ZoneSnapshot(day simtime.Day) []string {
	var out []string
	for _, r := range g.registries {
		out = append(out, r.ZoneSnapshot(day)...)
	}
	return out
}

// Count sums registrations active on day across members.
func (g *oracleGroup) Count(day simtime.Day) int {
	n := 0
	for _, r := range g.registries {
		n += r.Count(day)
	}
	return n
}

// oracleWorld is what Build used to keep per domain: the records by name,
// the names in generation order, and the registries.
type oracleWorld struct {
	domains    map[string]*DomainRec
	names      []string
	registries *oracleGroup
}

// buildOracle is Build's former buildDomains and buildSanctioned over w's
// generator.
func buildOracle(t testing.TB, w *World) *oracleWorld {
	t.Helper()
	o := &oracleWorld{
		domains:    make(map[string]*DomainRec),
		registries: &oracleGroup{[]*oracleRegistry{newOracleRegistry("ru."), newOracleRegistry(idn.RFTLDASCII + ".")}},
	}
	add := func(d *DomainRec, registrant, registrar string) {
		o.domains[d.Name] = d
		o.names = append(o.names, d.Name)
		reg, ok := o.registries.ForName(d.Name)
		if !ok {
			t.Fatalf("no registry for %s", d.Name)
		}
		if _, err := reg.Register(d.Name, d.Created, registrant, registrar); err != nil {
			t.Fatal(err)
		}
		if d.Removed != 0 {
			if err := reg.Remove(d.Name, d.Removed); err != nil {
				t.Fatal(err)
			}
		}
	}
	registrars := []string{"REG.RU", "RU-CENTER", "Beget", "Timeweb", "Webnames"}
	var src lazySource
	rng := rand.New(&src)
	for i := 0; i < w.cfg.NumDomains(); i++ {
		src.Seed(w.domainSeed(i))
		var d draft
		w.genDomain(i, rng, &d)
		if _, dup := o.domains[d.Name]; dup {
			continue // RFShare sampling can collide on names; skip
		}
		add(&DomainRec{Name: d.Name, Created: d.Created, Removed: d.Removed, epochs: byKey(d.epochs)},
			fmt.Sprintf("ORG-%06d", i), registrars[i%len(registrars)])
	}
	for i := 0; i < 107; i++ {
		var d draft
		sanctionedDraft(i, &d)
		add(&DomainRec{Name: d.Name, Created: d.Created, Sanctioned: true, epochs: byKey(d.epochs)},
			fmt.Sprintf("Sanctioned Entity %03d", i), "RU-CENTER")
	}
	return o
}

// byKey names the profiles of numbered epochs.
func byKey(es []epoch) []epochRec {
	out := make([]epochRec, len(es))
	for i, e := range es {
		out[i] = epochRec{From: e.From, DNS: e.dnsKey(), Host: e.hostKey()}
	}
	return out
}

// draftOf reads domain d back out of the table as the draft it was
// appended from.
func draftOf(w *World, d int) draft {
	rec := w.domains.Record(d)
	return draft{Name: rec.Name, Created: rec.Created, Removed: rec.Removed, epochs: slices.Clone(w.domains.epochsOf(d))}
}

// TestDomainTableMatchesOracle holds the table to the records and
// registries it replaced: every domain under its generation number, on
// every day its configuration changes plus the days around its
// registration — configuration, activity and whois record (registrant and
// registrar derived from the number) — and every scheduled day's zone
// snapshot and count, per registry and for the group.
func TestDomainTableMatchesOracle(t *testing.T) {
	w := getWorld(t)
	o := buildOracle(t, w)
	if got, want := w.NumDomains(), len(o.names); got != want {
		t.Fatalf("the table has %d domains, the oracle %d", got, want)
	}
	checked := 0
	for num, name := range o.names {
		rec := o.domains[name]
		d, ok := w.domains.Lookup(name)
		if !ok || d != num || w.domains.Name(d) != name {
			t.Fatalf("%s: Lookup gives %d (%v), named %q; want %d", name, d, ok, w.domains.Name(d), num)
		}
		if got := w.domains.isSanctioned(d); got != rec.Sanctioned {
			t.Fatalf("%s: sanctioned %v, oracle %v", name, got, rec.Sanctioned)
		}
		days := changeDays(w, d)
		days = append(days, rec.Created-1, rec.Removed, rec.Removed-1)
		for _, day := range days {
			if got, want := w.domains.ActiveOn(d, day), rec.ActiveOn(day); got != want {
				t.Fatalf("%s on %s: ActiveOn %v, oracle %v", name, day, got, want)
			}
			want, wantOK := rec.ConfigAt(day)
			got, ok := w.domains.configAt(d, day)
			if ok != wantOK || ok && (got.From != want.From || got.dnsKey() != want.DNS || got.hostKey() != want.Host) {
				t.Fatalf("%s on %s: configAt %+v (%v), oracle %+v (%v)", name, day, got, ok, want, wantOK)
			}
			checked++
		}
		want, _ := o.registries.Whois(name)
		for _, q := range []string{name, strings.ToUpper(strings.TrimSuffix(name, "."))} {
			if got, ok := w.Registries.Whois(q); !ok || got != want {
				t.Fatalf("Whois(%q) = %+v (%v), oracle %+v", q, got, ok, want)
			}
		}
		if created, ok := w.Registries.Created(name); !ok || created != rec.Created {
			t.Fatalf("Created(%s) = %s (%v), oracle %s", name, created, ok, rec.Created)
		}
	}
	for _, name := range []string{"nosuch.ru.", "x-" + o.names[0], "www." + o.names[0], "ru.", "sanctioned107.ru.", ""} {
		if d, ok := w.domains.Lookup(name); ok {
			t.Errorf("Lookup(%q) found domain %d", name, d)
		}
		if _, ok := w.Registries.Whois(name); ok {
			t.Errorf("Whois(%q) found a record", name)
		}
	}

	days := openintel.Schedule(simtime.StudyStart, simtime.StudyEnd, simtime.DenseWindowStart, 3)
	for _, day := range days {
		if got, want := w.Registries.ZoneSnapshot(day), o.registries.ZoneSnapshot(day); !reflect.DeepEqual(got, want) {
			i := 0
			for i < min(len(got), len(want)) && got[i] == want[i] {
				i++
			}
			t.Fatalf("ZoneSnapshot(%s): %d names, oracle %d; they part at position %d", day, len(got), len(want), i)
		}
		if got, want := w.Registries.Count(day), o.registries.Count(day); got != want {
			t.Fatalf("Count(%s) = %d, oracle %d", day, got, want)
		}
		for i, r := range w.Registries.Registries() {
			ref := o.registries.registries[i]
			if r.TLD != ref.TLD || !reflect.DeepEqual(r.ZoneSnapshot(day), ref.ZoneSnapshot(day)) {
				t.Fatalf("registry %s on %s differs from the oracle's %s", r.TLD, day, ref.TLD)
			}
		}
	}
	t.Logf("%d domains, %d (domain, day) pairs, %d scheduled days compared", len(o.names), checked, len(days))
}

// TestDomainTableBytesPerDomain measures what the world keeps per domain,
// the way TestCorpusHoldsNothingNobodyReads measures the corpus: drop
// everything else that holds a name — the certificates and the sanctions
// list name domains by substrings of the table's one string — then the
// table, reading the heap after each. A row, its epochs, its name and its
// slot in the index and in its zone's order come to ≈55 bytes; the
// records and maps the table replaced held ≈320.
func TestDomainTableBytesPerDomain(t *testing.T) {
	if testing.Short() {
		t.Skip("heap measurement")
	}
	w, err := Build(TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	n, epochs := w.NumDomains(), len(w.domains.epochs)
	w.CTLog, w.Scanner, w.Certs, w.Sanctions = nil, nil, nil, nil
	held := heapNow()
	w.domains, w.Registries = domainTable{}, nil
	table := int64(held) - int64(heapNow())
	runtime.KeepAlive(w)
	t.Logf("%d domains: the table holds %d bytes, %.1f per domain (%d epochs)", n, table, float64(table)/float64(n), epochs)
	if table > int64(64*n) {
		t.Errorf("the table holds %d bytes for %d domains (%.1f each), want at most 64 each", table, n, float64(table)/float64(n))
	}
	if table < int64(32*n) {
		t.Errorf("the table reads %d bytes for %d domains: the probe is not measuring it", table, n)
	}
}
