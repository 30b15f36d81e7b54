package netsim

import (
	"sort"
	"sync"

	"whereru/internal/simtime"
)

// OutageSchedule is a day-indexed registry of planned outage and route
// event windows, keyed by an arbitrary label (a provider key, a TLD, a
// server address, a route event key). It is the bookkeeping half of
// scheduled failures: the fault layer (dns.FaultTransport) enforces wire
// outages and the topology (Topology) enforces route events, while the
// schedule records what was planned so experiments and the serve API can
// ask "what was down on day X?" — e.g. Netnod withdrawing service from
// Russia, or the paper's footnote-8 collection outage.
//
// Every read path is deterministic regardless of registration order:
// Keys is sorted, Windows is normalized (sorted, overlapping/adjacent
// windows merged), and Events iterates keys in sorted order. This is the
// same bug class PR 1 fixed in servedTLDs — map iteration must never
// leak into output bytes.
type OutageSchedule struct {
	mu      sync.RWMutex
	windows map[string][]simtime.Window
	kinds   map[string]string
}

// ScheduledEvent is one normalized (key, kind, window) record from the
// schedule. Kind is "outage" for plain Add calls, or a route event kind
// (netsim.EventDepeer etc.) for AddEvent calls.
type ScheduledEvent struct {
	Key    string
	Kind   string
	Window simtime.Window
}

// NewOutageSchedule returns an empty schedule.
func NewOutageSchedule() *OutageSchedule {
	return &OutageSchedule{
		windows: make(map[string][]simtime.Window),
		kinds:   make(map[string]string),
	}
}

// Add records an outage window for key. Windows may overlap; reads merge
// them.
func (s *OutageSchedule) Add(key string, w simtime.Window) {
	s.AddEvent(key, "outage", w)
}

// AddEvent records a window for key with an explicit event kind (route
// events use their netsim kind: "depeer", "ixp-withdraw", "partition").
// All windows under one key share that key's kind; the first registration
// wins.
func (s *OutageSchedule) AddEvent(key, kind string, w simtime.Window) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.windows[key] = append(s.windows[key], w)
	if _, ok := s.kinds[key]; !ok {
		s.kinds[key] = kind
	}
}

// normalized returns key's windows sorted by (From, To) with overlapping
// and adjacent windows merged. Callers hold at least a read lock.
func (s *OutageSchedule) normalized(key string) []simtime.Window {
	ws := s.windows[key]
	if len(ws) == 0 {
		return nil
	}
	out := make([]simtime.Window, len(ws))
	copy(out, ws)
	sort.Slice(out, func(i, j int) bool {
		if out[i].From != out[j].From {
			return out[i].From < out[j].From
		}
		return out[i].To < out[j].To
	})
	merged := out[:1]
	for _, w := range out[1:] {
		last := &merged[len(merged)-1]
		if w.From <= last.To+1 { // overlapping or adjacent
			if w.To > last.To {
				last.To = w.To
			}
			continue
		}
		merged = append(merged, w)
	}
	return merged
}

// Events returns every scheduled event in normal form: keys in sorted
// order, each key's windows normalized. The result is deterministic for
// any registration order — it is what the serve API renders.
func (s *OutageSchedule) Events() []ScheduledEvent {
	s.mu.RLock()
	defer s.mu.RUnlock()
	keys := make([]string, 0, len(s.windows))
	for key := range s.windows {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var out []ScheduledEvent
	for _, key := range keys {
		kind := s.kinds[key]
		if kind == "" {
			kind = "outage"
		}
		for _, w := range s.normalized(key) {
			out = append(out, ScheduledEvent{Key: key, Kind: kind, Window: w})
		}
	}
	return out
}

// ActiveOn reports whether key has a scheduled outage covering day.
func (s *OutageSchedule) ActiveOn(key string, day simtime.Day) bool {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, w := range s.windows[key] {
		if w.Contains(day) {
			return true
		}
	}
	return false
}

// ActiveKeys returns the sorted keys with an outage covering day.
func (s *OutageSchedule) ActiveKeys(day simtime.Day) []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []string
	for key, ws := range s.windows {
		for _, w := range ws {
			if w.Contains(day) {
				out = append(out, key)
				break
			}
		}
	}
	sort.Strings(out)
	return out
}
