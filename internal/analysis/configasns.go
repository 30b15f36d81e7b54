package analysis

import (
	"whereru/internal/netsim"
	"whereru/internal/store"
)

// asnMemo is the analyzer's per-config origin-AS table: byID[id] lists
// the distinct ASNs originating config id's apex addresses, in address
// order — the one place a config's hosting ASNs are derived for the
// movement and relocation analyses, which ask it of the same few thousand
// configs for every (domain, day, request).
//
// Memoising per ID is sound because both inputs are frozen: a store's
// config IDs are append-only and never renumbered (store.Snapshot), and
// OriginAS is a pure function of the address once the world is built
// (prefixes are allocated only inside world.Build). The table is keyed to
// the identity of both, so an Analyzer pointed at another Store or
// Internet (core.adoptStore swaps the store) starts a new one.
//
// Read-mostly: readers take the published table through an atomic
// pointer and never lock. It only grows, by an append published as a new
// header, so the entries a reader already sees are never written again.
type asnMemo struct {
	store *store.Store
	inet  *netsim.Internet
	byID  [][]netsim.ASN
}

// configASNs returns the origin-AS table covering every config ID snap
// can hand out, extending (or, after a store or Internet swap, starting)
// the memo under the mutex when snap knows configs it does not.
func (a *Analyzer) configASNs(snap *store.Snapshot) [][]netsim.ASN {
	n := snap.NumConfigs()
	// table is the published table if it is about a's store and Internet.
	table := func() [][]netsim.ASN {
		if m := a.asns.Load(); m != nil && m.store == a.Store && m.inet == a.Internet {
			return m.byID
		}
		return nil
	}
	if byID := table(); len(byID) >= n {
		return byID
	}
	a.asnMu.Lock()
	defer a.asnMu.Unlock()
	byID := table()
	if len(byID) >= n {
		return byID
	}
	for id := len(byID); id < n; id++ {
		var asns []netsim.ASN
		for _, addr := range snap.Config(uint32(id)).ApexAddrs {
			if asn, ok := a.Internet.OriginAS(addr); ok {
				asns = uniqueAppend(asns, asn)
			}
		}
		byID = append(byID, asns)
	}
	a.asns.Store(&asnMemo{store: a.Store, inet: a.Internet, byID: byID})
	return byID
}
