package analysis

import (
	"whereru/internal/netsim"
	"whereru/internal/store"
)

// asnMemo is the analyzer's per-config origin-AS table and, for one store
// snapshot, the posting index built from it. byID[id] lists the distinct
// ASNs originating config id's apex addresses, in address order — the one
// place a config's hosting ASNs are derived for the movement and
// relocation analyses. hosts[asn] lists, ascending, the positions of
// snap's domains that carried an apex address in asn in any epoch: the
// only domains a movement or relocation about asn can count, since both
// count a domain only by configs it carried.
//
// Memoising per ID is sound because both inputs are frozen: a store's
// config IDs are append-only and never renumbered (store.Snapshot), and
// OriginAS is a pure function of the address once the world is built
// (prefixes are allocated only inside world.Build). The memo is keyed to
// the identity of the Store, the Internet and the snapshot: an Analyzer
// pointed at another Store or Internet (core.adoptStore swaps the store)
// starts a new table, and a new snapshot of the same pair extends it and
// rebuilds only the index.
//
// Read-mostly: readers take the published memo through an atomic pointer
// and never lock. byID only grows, by an append published as a new
// header, so the entries a reader already sees are never written again.
type asnMemo struct {
	store *store.Store
	inet  *netsim.Internet
	byID  [][]netsim.ASN
	snap  *store.Snapshot
	hosts map[netsim.ASN][]uint32
}

// hosting returns the memo for the store's current snapshot, building it
// under the mutex on the first call against that snapshot.
func (a *Analyzer) hosting() *asnMemo {
	st, inet := a.Store, a.Internet
	snap := st.Snapshot()
	// published is the published memo if it is about st and inet.
	published := func() *asnMemo {
		if m := a.asns.Load(); m != nil && m.store == st && m.inet == inet {
			return m
		}
		return nil
	}
	if m := published(); m != nil && m.snap == snap {
		return m
	}
	a.asnMu.Lock()
	defer a.asnMu.Unlock()
	old := published()
	if old != nil && old.snap == snap {
		return old
	}
	m := &asnMemo{store: st, inet: inet, snap: snap, hosts: make(map[netsim.ASN][]uint32)}
	if old != nil {
		m.byID = old.byID
	}
	for id := len(m.byID); id < snap.NumConfigs(); id++ {
		var asns []netsim.ASN
		for _, addr := range snap.Config(uint32(id)).ApexAddrs {
			if asn, ok := inet.OriginAS(addr); ok {
				asns = uniqueAppend(asns, asn)
			}
		}
		m.byID = append(m.byID, asns)
	}
	for i := range snap.NumDomains() {
		for _, id := range snap.ConfigIDs(i) {
			for _, asn := range m.byID[id] {
				if l := m.hosts[asn]; len(l) == 0 || l[len(l)-1] != uint32(i) {
					m.hosts[asn] = append(l, uint32(i))
				}
			}
		}
	}
	// A caller holding an older snapshot than the published one keeps its
	// index to itself, so the next request on the current snapshot does
	// not rebuild.
	if old == nil || old.snap.Generation() < snap.Generation() {
		a.asns.Store(m)
	}
	return m
}
