package dns

import (
	"context"
	"fmt"
	"maps"
	"net/netip"
	"sync"
	"sync/atomic"

	"whereru/internal/simtime"
)

// This file is the deterministic fault-injection layer: a Transport
// wrapper that subjects exchanges to packet loss and to scheduled outage
// windows keyed to the simulation day. Measurement platforms treat loss
// as normal — ZDNS-style sweeps retry per-nameserver precisely because
// single-attempt sweeps systematically overcount failures — so
// experiments that previously toggled MemNet.SetUnreachable by hand
// become declarative FaultProfiles here, and the paper's wartime
// instabilities (Netnod withdrawing service, flapping delegations, lossy
// paths) become reproducible inputs.

// DayClock reports the current simulation day. netsim.Clock satisfies it;
// a nil clock pins the fault layer to day 0 (outage windows never fire
// unless they cover day 0, and fault hashes lose their day key).
type DayClock interface {
	Now() simtime.Day
}

// FaultProfile describes how a server misbehaves. The zero value
// injects nothing.
type FaultProfile struct {
	// Loss is the probability in [0,1] that an exchange is silently
	// dropped (surfaced as ErrNoRoute, the in-memory analog of a timeout).
	Loss float64
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
	return p.Loss > 0 || len(p.Outages) > 0
}

// ErrInjected marks errors produced by the fault layer. It wraps
// ErrNoRoute so callers that already treat unreachability as a timeout
// need no changes.
var ErrInjected = fmt.Errorf("%w (injected fault)", ErrNoRoute)

// The fault layer's two verdicts, shared by every exchange they end: a
// lost exchange allocates nothing, and Client.Query's error names the
// server.
var (
	errInjectedLoss   = fmt.Errorf("%w: loss", ErrInjected)
	errInjectedOutage = fmt.Errorf("%w: scheduled outage", ErrInjected)
)

// FaultTransport wraps a Transport with per-server fault profiles.
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
}

// faultProfiles is one fault configuration, immutable once published.
type faultProfiles struct {
	def     FaultProfile
	hasDef  bool
	servers map[netip.Addr]FaultProfile
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
	next.servers = maps.Clone(next.servers)
	change(&next)
	t.profiles.Store(&next)
}

// SetDefault installs the profile applied to servers with no more
// specific match.
func (t *FaultTransport) SetDefault(p FaultProfile) {
	t.update(func(f *faultProfiles) { f.def, f.hasDef = p, true })
}

// SetServer installs a profile for one server address, overriding the
// default profile.
func (t *FaultTransport) SetServer(addr netip.Addr, p FaultProfile) {
	t.update(func(f *faultProfiles) { f.servers[addr] = p })
}

// profileFor resolves the effective profile for a server: exact address,
// then the default.
func (t *FaultTransport) profileFor(server netip.Addr) (FaultProfile, bool) {
	f := t.profiles.Load()
	if p, ok := f.servers[server]; ok {
		return p, true
	}
	return f.def, f.hasDef
}

// saltLoss separates the loss decision's hash from every other hash of
// the same exchange identity.
const saltLoss = 0x9E3779B97F4A7C15

// roll derives the loss decision's uniform float64 in [0,1) from the
// exchange identity (FNV-1a over saltLoss, seed, day, server, query ID
// and question).
func (t *FaultTransport) roll(day simtime.Day, server netip.Addr, q *Message) float64 {
	h := fnvMix(fnvMix(fnvMix(fnvOffset64, saltLoss), uint64(t.seed)), uint64(uint32(day)))
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
	var day simtime.Day
	if t.clock != nil {
		day = t.clock.Now()
	}
	if p.outageOn(day) {
		return nil, errInjectedOutage
	}
	if p.Loss > 0 && t.roll(day, server, query) < p.Loss {
		return nil, errInjectedLoss
	}
	return t.inner.Exchange(ctx, server, query)
}
