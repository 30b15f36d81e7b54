package dns

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/simtime"
)

// This file is the deterministic fault-injection layer: a Transport
// wrapper that subjects exchanges to packet loss, SERVFAIL flaps,
// truncation, added latency, and scheduled outage windows keyed to the
// simulation day. Measurement platforms treat loss as normal — ZDNS-style
// sweeps retry per-nameserver precisely because single-attempt sweeps
// systematically overcount failures — so experiments that previously
// toggled MemNet.SetUnreachable by hand become declarative FaultProfiles
// here, and the paper's wartime instabilities (Netnod withdrawing
// service, flapping delegations, lossy paths) become reproducible inputs.

// DayClock reports the current simulation day. netsim.Clock satisfies it;
// a nil clock pins the fault layer to day 0 (outage windows never fire
// unless they cover day 0, and fault hashes lose their day key).
type DayClock interface {
	Now() simtime.Day
}

// FaultProfile describes how a server (or prefix of servers) misbehaves.
// The zero value injects nothing.
type FaultProfile struct {
	// Loss is the probability in [0,1] that an exchange is silently
	// dropped (surfaced as ErrNoRoute, the in-memory analog of a timeout).
	Loss float64
	// ServFail is the probability that an otherwise-successful response
	// is replaced by a SERVFAIL — a flapping resolver or overloaded
	// authoritative.
	ServFail float64
	// Truncate is the probability that the response arrives with the TC
	// bit set and its record sections clipped, as an overfull UDP
	// datagram would.
	Truncate float64
	// Latency is added to every exchange before it is attempted.
	Latency time.Duration
	// LatencyJitter spreads Latency per exchange: the effective delay is
	// Latency × (1 − J/2 + J·u), where u ∈ [0,1) is a pure hash of
	// (seed, day, server, query) — the same scheme as the fault rolls, so
	// the spread is replayable and mean-preserving. A fixed Latency alone
	// produces a one-spike distribution; jitter makes latency series
	// non-degenerate without sacrificing determinism. Values in [0,1] are
	// sensible (0.3 → ±15%); 0 disables jitter.
	LatencyJitter float64
	// Outages are scheduled windows during which the target drops every
	// query — e.g. Netnod's service withdrawal expressed as data rather
	// than an ad-hoc SetUnreachable call.
	Outages []simtime.Window
}

// outageOn reports whether day falls inside a scheduled outage window.
func (p *FaultProfile) outageOn(day simtime.Day) bool {
	for _, w := range p.Outages {
		if w.Contains(day) {
			return true
		}
	}
	return false
}

// active reports whether the profile can inject anything at all.
func (p *FaultProfile) active() bool {
	return p.Loss > 0 || p.ServFail > 0 || p.Truncate > 0 || p.Latency > 0 || len(p.Outages) > 0
}

// FaultStats counts what the fault layer did, for quantifying degraded
// sweeps.
type FaultStats struct {
	// Exchanges is the number of exchanges that passed through a profile.
	Exchanges int64
	// Dropped counts injected packet losses.
	Dropped int64
	// Outaged counts queries dropped by a scheduled outage window.
	Outaged int64
	// ServFails counts responses replaced by SERVFAIL.
	ServFails int64
	// Truncated counts responses clipped with the TC bit.
	Truncated int64
}

// ErrInjected marks errors produced by the fault layer. It wraps
// ErrNoRoute so callers that already treat unreachability as a timeout
// need no changes.
var ErrInjected = fmt.Errorf("%w (injected fault)", ErrNoRoute)

// FaultTransport wraps a Transport with per-server and per-prefix fault
// profiles.
//
// Fault decisions are pure hash functions of (seed, day, server, query),
// not draws from a sequential RNG: concurrent sweep workers interleave
// exchanges in scheduler-dependent order, and a shared RNG would hand a
// different fate to each query on every run. Hashing makes an exchange's
// outcome depend only on what is being asked and when, so a fixed seed
// reproduces the same faults — and therefore the same measurements —
// regardless of worker count or scheduling. The query ID participates in
// the hash, so retransmissions (which carry fresh IDs) re-roll their
// fate; pair with NewSeededClient for IDs that are themselves
// deterministic.
type FaultTransport struct {
	inner Transport
	clock DayClock
	seed  int64

	// profiles is read once per exchange by every sweep worker and
	// written a handful of times during set-up: readers load the current
	// table; a writer, under mu, publishes a modified copy.
	mu       sync.Mutex
	profiles atomic.Pointer[faultProfiles]

	exchanges, dropped, outaged, servfails, truncated atomic.Int64
}

// faultProfiles is one fault configuration, immutable once published.
type faultProfiles struct {
	def      FaultProfile
	hasDef   bool
	servers  map[netip.Addr]FaultProfile
	prefixes []prefixProfile
}

type prefixProfile struct {
	prefix  netip.Prefix
	profile FaultProfile
}

// NewFaultTransport wraps inner with an empty fault configuration. clock
// may be nil when no profile uses outage windows.
func NewFaultTransport(inner Transport, seed int64, clock DayClock) *FaultTransport {
	t := &FaultTransport{inner: inner, clock: clock, seed: seed}
	t.profiles.Store(&faultProfiles{servers: make(map[netip.Addr]FaultProfile)})
	return t
}

// update publishes a copy of the current configuration with change
// applied to it.
func (t *FaultTransport) update(change func(*faultProfiles)) {
	t.mu.Lock()
	defer t.mu.Unlock()
	next := *t.profiles.Load()
	next.servers, next.prefixes = maps.Clone(next.servers), slices.Clone(next.prefixes)
	change(&next)
	t.profiles.Store(&next)
}

// SetDefault installs the profile applied to servers with no more
// specific match.
func (t *FaultTransport) SetDefault(p FaultProfile) {
	t.update(func(f *faultProfiles) { f.def, f.hasDef = p, true })
}

// SetServer installs a profile for one server address, overriding prefix
// and default profiles.
func (t *FaultTransport) SetServer(addr netip.Addr, p FaultProfile) {
	t.update(func(f *faultProfiles) { f.servers[addr] = p })
}

// SetPrefix installs a profile for every server inside prefix. The most
// specific (longest) matching prefix wins.
func (t *FaultTransport) SetPrefix(prefix netip.Prefix, p FaultProfile) {
	t.update(func(f *faultProfiles) {
		for i := range f.prefixes {
			if f.prefixes[i].prefix == prefix {
				f.prefixes[i].profile = p
				return
			}
		}
		f.prefixes = append(f.prefixes, prefixProfile{prefix: prefix, profile: p})
	})
}

// Stats returns the running fault counters.
func (t *FaultTransport) Stats() FaultStats {
	return FaultStats{
		Exchanges: t.exchanges.Load(),
		Dropped:   t.dropped.Load(),
		Outaged:   t.outaged.Load(),
		ServFails: t.servfails.Load(),
		Truncated: t.truncated.Load(),
	}
}

// profileFor resolves the effective profile for a server: exact address,
// then longest matching prefix, then the default.
func (t *FaultTransport) profileFor(server netip.Addr) (FaultProfile, bool) {
	f := t.profiles.Load()
	if p, ok := f.servers[server]; ok {
		return p, true
	}
	best, bestBits := FaultProfile{}, -1
	for _, pp := range f.prefixes {
		if pp.prefix.Contains(server) && pp.prefix.Bits() > bestBits {
			best, bestBits = pp.profile, pp.prefix.Bits()
		}
	}
	if bestBits >= 0 {
		return best, true
	}
	return f.def, f.hasDef
}

// Hash salts separating the independent fault decisions of one exchange.
const (
	saltLoss     = 0x9E3779B97F4A7C15
	saltServFail = 0xC2B2AE3D27D4EB4F
	saltTrunc    = 0x165667B19E3779F9
	saltLatency  = 0x27D4EB2F165667C5
)

// roll derives a uniform float64 in [0,1) from the exchange identity and
// a per-decision salt (FNV-1a over seed, day, server, query ID and
// question).
func (t *FaultTransport) roll(salt uint64, day simtime.Day, server netip.Addr, q *Message) float64 {
	h := fnvMix(fnvMix(fnvMix(fnvOffset64, salt), uint64(t.seed)), uint64(uint32(day)))
	b := server.As4()
	h = fnvMix(h, uint64(b[0])<<24|uint64(b[1])<<16|uint64(b[2])<<8|uint64(b[3]))
	h = fnvMix(h, uint64(q.ID))
	if len(q.Questions) > 0 {
		h = fnvMixString(fnvMix(h, uint64(q.Questions[0].Type)), q.Questions[0].Name)
	}
	return float64(h>>11) / float64(1<<53)
}

// Exchange implements Transport: it applies the effective profile's
// faults, then delegates to the wrapped transport.
func (t *FaultTransport) Exchange(ctx context.Context, server netip.Addr, query *Message) (*Message, error) {
	p, ok := t.profileFor(server)
	if !ok || !p.active() {
		return t.inner.Exchange(ctx, server, query)
	}
	t.exchanges.Add(1)
	var day simtime.Day
	if t.clock != nil {
		day = t.clock.Now()
	}
	if p.Latency > 0 {
		delay := p.Latency
		if p.LatencyJitter > 0 {
			// Mean-preserving spread around Latency, hashed from the
			// exchange identity so retransmissions (fresh query IDs)
			// re-roll their delay but replays reproduce it exactly.
			factor := 1 - p.LatencyJitter/2 + p.LatencyJitter*t.roll(saltLatency, day, server, query)
			delay = time.Duration(float64(delay) * factor)
		}
		timer := time.NewTimer(delay)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if p.outageOn(day) {
		t.outaged.Add(1)
		return nil, fmt.Errorf("%w: %v in scheduled outage on %s", ErrInjected, server, day)
	}
	if p.Loss > 0 && t.roll(saltLoss, day, server, query) < p.Loss {
		t.dropped.Add(1)
		return nil, fmt.Errorf("%w: loss to %v", ErrInjected, server)
	}
	resp, err := t.inner.Exchange(ctx, server, query)
	if err != nil {
		return nil, err
	}
	if p.ServFail > 0 && t.roll(saltServFail, day, server, query) < p.ServFail {
		t.servfails.Add(1)
		out := query.Reply()
		out.RCode = RCodeServFail
		return out, nil
	}
	if p.Truncate > 0 && t.roll(saltTrunc, day, server, query) < p.Truncate {
		t.truncated.Add(1)
		return Truncate(resp), nil
	}
	return resp, nil
}

// Truncate returns a copy of resp clipped the way an overfull UDP
// datagram is: TC set, record sections dropped, header and question
// preserved. Exported so tests and fuzz corpora can produce exactly the
// shapes the fault layer emits.
func Truncate(resp *Message) *Message {
	out := &Message{Header: resp.Header}
	out.Truncated = true
	out.Questions = append(out.Questions, resp.Questions...)
	return out
}
