package world

import (
	"sort"

	"whereru/internal/registry"
	"whereru/internal/simtime"
)

// The world is a table indexed by domain number, immutable after Build.
// The registries' group holds each domain's name — a substring of one
// string holding every name — its registration lifetime, the zones' sort
// orders and the name index; the world adds each domain's configuration
// history, one shared column of epochs with profiles by number. Generated
// domains come first, numbered by generation index; the sanctioned follow.
type domainTable struct {
	*registry.Group
	epochOff   []uint32 // domain d's epochs are epochs[epochOff[d]:epochOff[d+1]]
	epochs     []epoch
	sanctioned int // the first sanctioned domain number
}

// epoch is one piecewise-constant configuration interval; it applies from
// From until the next epoch (or the end of the domain's life). DNS and
// Host are profile numbers: indexes into dnsKeys and hostKeys.
type epoch struct {
	From      simtime.Day
	DNS, Host uint16
}

func (e epoch) dnsKey() string  { return dnsKeys[e.DNS] }
func (e epoch) hostKey() string { return hostKeys[e.Host] }

// Profiles are numbered in sorted key order.
var dnsKeys, hostKeys = sortedKeys(dnsProfiles), sortedKeys(hostProfiles)

// sortedKeys returns m's keys in order: map-walk order must not decide
// anything in a world.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// profileNum numbers a profile key the generator chose.
func profileNum(keys []string, key string) uint16 {
	i := sort.SearchStrings(keys, key)
	if i == len(keys) || keys[i] != key {
		panic("world: unknown profile " + key)
	}
	return uint16(i)
}

// configIn returns the epoch of es in force on day.
func configIn(es []epoch, day simtime.Day) (epoch, bool) {
	i := sort.Search(len(es), func(i int) bool { return es[i].From > day })
	if i == 0 {
		return epoch{}, false
	}
	return es[i-1], true
}

// epochsOf returns domain d's epochs, sorted by From; the first begins on
// its registration day.
func (t *domainTable) epochsOf(d int) []epoch { return t.epochs[t.epochOff[d]:t.epochOff[d+1]] }

// configAt returns domain d's configuration on day.
func (t *domainTable) configAt(d int, day simtime.Day) (epoch, bool) {
	if !t.ActiveOn(d, day) {
		return epoch{}, false
	}
	return configIn(t.epochsOf(d), day)
}

// configOf is configAt for a name: ok is false for a name nobody holds.
func (t *domainTable) configOf(name string, day simtime.Day) (int, epoch, bool) {
	d, ok := t.Lookup(name)
	if !ok {
		return 0, epoch{}, false
	}
	cfg, ok := t.configAt(d, day)
	return d, cfg, ok
}

// isSanctioned reports whether domain d is one of the 107 sanctioned.
func (t *domainTable) isSanctioned(d int) bool { return d >= t.sanctioned }
