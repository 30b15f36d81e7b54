// Package ct implements a Certificate Transparency log as the study reads
// one: an append-only list of logged certificates with their log
// timestamps, read in bulk by Scan and tailed by a Monitor that delivers
// certificates matching a predicate — the reproduction's analog of
// Censys's CT index, which the paper uses to find every certificate
// securing a .ru or .рф name (§4.1).
package ct

import (
	"fmt"
	"sync"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// Entry is one log entry.
type Entry struct {
	Index     int64
	Timestamp simtime.Day
	Cert      *pki.Certificate
}

// Log is an append-only CT log.
type Log struct {
	// Name identifies the log shard (e.g. "oak2022").
	Name string

	mu      sync.RWMutex
	entries []logged
}

// logged is an Entry as the log keeps it: the index is the position.
type logged struct {
	day  simtime.Day
	cert *pki.Certificate
}

// NewLog creates an empty log.
func NewLog(name string) *Log {
	return &Log{Name: name}
}

// Append adds a certificate to the log at the given timestamp and returns
// its index. Appending certificates from CAs that do not log is the
// caller's bug, so it is rejected loudly.
func (l *Log) Append(cert *pki.Certificate, day simtime.Day) (int64, error) {
	if !cert.Logged {
		return 0, fmt.Errorf("ct: certificate %d is marked not-logged", cert.Serial)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, logged{day: day, cert: cert})
	return int64(len(l.entries) - 1), nil
}

// Size returns the current number of entries.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int64(len(l.entries))
}

// Scan visits entries [from, to) that satisfy pred (nil = all), returning
// the matches. It is the bulk-read primitive monitors build on.
func (l *Log) Scan(from, to int64, pred func(*pki.Certificate) bool) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	if to > int64(len(l.entries)) {
		to = int64(len(l.entries))
	}
	var out []Entry
	for i := from; i < to; i++ {
		if e := l.entries[i]; pred == nil || pred(e.cert) {
			out = append(out, Entry{Index: i, Timestamp: e.day, Cert: e.cert})
		}
	}
	return out
}

// Monitor tails a log, delivering new entries that match a predicate —
// how Censys incrementally indexes CT shards.
type Monitor struct {
	Log  *Log
	Pred func(*pki.Certificate) bool

	mu   sync.Mutex
	next int64
}

// NewMonitor creates a monitor from the beginning of the log.
func NewMonitor(log *Log, pred func(*pki.Certificate) bool) *Monitor {
	return &Monitor{Log: log, Pred: pred}
}

// Poll returns entries appended since the previous Poll that match.
func (m *Monitor) Poll() []Entry {
	m.mu.Lock()
	from := m.next
	size := m.Log.Size()
	m.next = size
	m.mu.Unlock()
	return m.Log.Scan(from, size, m.Pred)
}
