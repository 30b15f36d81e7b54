package dns

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Transport exchanges one DNS query with the server at addr and returns
// its response. MemNet delivers it to in-process handlers through the
// RFC 1035 codec, which is what makes multi-million-query measurement
// sweeps affordable; FaultTransport and RouteTransport wrap another
// Transport.
type Transport interface {
	Exchange(ctx context.Context, server netip.Addr, query *Message) (*Message, error)
}

// Handler answers DNS queries, in the manner of http.Handler.
//
// The request is on loan: q, its sections, the Message q.Reply() returns
// and the room its Records lends are valid only until ServeDNS returns
// and the transport has encoded the response, after which MemNet reuses
// their storage. A handler must not retain them, hand them to another
// goroutine, or Release them. It may copy names, record values and
// addresses out, and it may return a response whose sections point at its
// own long-lived record sets — the transport reads the response, never
// writes it.
type Handler interface {
	ServeDNS(q *Message, from netip.Addr) *Message
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(q *Message, from netip.Addr) *Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(q *Message, from netip.Addr) *Message { return f(q, from) }

// Errors surfaced by transports.
var (
	// ErrNoRoute means no server is bound at the target address (the
	// in-memory analog of an ICMP unreachable / timeout).
	ErrNoRoute = errors.New("dns: no server at address")
	// ErrIDMismatch means the response ID did not match the query.
	ErrIDMismatch = errors.New("dns: response ID mismatch")
)

// MemNet is an in-memory "Internet": a routing table from server address
// to handler. Exchange serializes the query and deserializes the response
// through the real codec, so everything above it reads the octets a UDP
// exchange would carry. MemNet is safe for concurrent use; binds are
// expected to be rare relative to exchanges, so the routing table is read
// without a lock and mu only serializes its writers.
type MemNet struct {
	mu     sync.Mutex
	routes *lfMap[netip.Addr, Handler]
	// tap observes every exchanged query (e.g. for counting).
	tap atomic.Pointer[func(server netip.Addr, q *Message)]
	// intern dedups decoded names and RData across this network's
	// lifetime; the simulated world's name population is fixed, so the
	// steady-state decode allocates almost nothing.
	intern *wireIntern
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{
		routes: newLFMap[netip.Addr, Handler](hashAddr),
		intern: newWireIntern(),
	}
}

// Bind attaches a handler to an address, replacing any previous binding;
// a nil handler unbinds the address.
func (m *MemNet) Bind(addr netip.Addr, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes.put(addr, h)
}

// SetTap installs a function observing every exchange (nil to remove).
func (m *MemNet) SetTap(tap func(server netip.Addr, q *Message)) {
	if tap == nil {
		m.tap.Store(nil)
		return
	}
	m.tap.Store(&tap)
}

// Exchange implements Transport. The query is round-tripped through the
// wire codec to keep the in-memory path faithful to the wire. Both
// decoded messages live in pooled arenas: the request's (with the
// handler's Reply) is taken back here once the response is encoded; the
// response's passes to the caller, who may Release it.
func (m *MemNet) Exchange(ctx context.Context, server netip.Addr, query *Message) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h, _ := m.routes.get(server)
	if tap := m.tap.Load(); tap != nil {
		(*tap)(server, query)
	}
	if h == nil {
		return nil, fmt.Errorf("%w: %v", ErrNoRoute, server)
	}
	// One wire buffer serves both directions: nothing decoded aliases it,
	// so the request's octets are dead by the time the response is encoded.
	wb := getWireBuf()
	defer putWireBuf(wb)
	wire, err := query.AppendEncode((*wb)[:0])
	if err != nil {
		return nil, err
	}
	*wb = wire
	// The question comes back in the request and again in the response:
	// both decodes return the query's own name, just encoded, for it.
	var hint string
	if len(query.Questions) > 0 {
		hint = query.Questions[0].Name
	}
	req, err := decodeArena(wire, m.intern, hint)
	if err != nil {
		return nil, err
	}
	req.serving = true
	resp := h.ServeDNS(&req.m, netip.AddrFrom4([4]byte{127, 0, 0, 1}))
	if resp == nil {
		req.recycle()
		return nil, fmt.Errorf("%w: handler returned no response", ErrNoRoute)
	}
	wire, err = resp.AppendEncode(wire[:0])
	req.recycle() // resp may live in req: encoded or not, it ends here
	if err != nil {
		return nil, err
	}
	*wb = wire
	out, err := decodeArena(wire, m.intern, hint)
	if err != nil {
		return nil, err
	}
	if out.m.ID != query.ID {
		out.recycle()
		return nil, ErrIDMismatch
	}
	return &out.m, nil
}

// Client issues queries over a Transport with ID generation and bounded
// retransmission. It re-sends at once: the in-memory wire has no
// congestion to wait out, and sweeps over it must not sleep. Only a
// transport error is retried — on a lossy path it is transient, and a
// single-attempt sweep that takes it at face value systematically
// overcounts failures; any response, whatever its RCODE or TC bit, is
// the server's answer and is returned as it is.
type Client struct {
	Transport Transport
	// Retries is the number of re-sends after the first attempt.
	Retries int

	// seeded clients derive query IDs deterministically from seed so
	// lossy runs are reproducible; unseeded clients mix a counter
	// the process started at a clock-derived value, which every worker of
	// a sweep draws from without waiting for another.
	seeded bool
	seed   int64
	draws  atomic.Uint64

	queries, attempts, retries, recovered, failed atomic.Int64
}

// ClientStats counts query outcomes, for quantifying degraded sweeps.
type ClientStats struct {
	// Queries is the number of Query calls.
	Queries int64
	// Attempts is the number of exchanges issued (≥ Queries).
	Attempts int64
	// Retries is the number of re-sent exchanges (Attempts - Queries for
	// queries that ran to completion).
	Retries int64
	// Recovered is the number of queries that succeeded only after at
	// least one failed attempt.
	Recovered int64
	// Failed is the number of queries that exhausted every attempt.
	Failed int64
}

// NewClient returns a client over the given transport with random IDs.
func NewClient(t Transport) *Client {
	return &Client{Transport: t, Retries: 2}
}

// NewSeededClient returns a client whose query IDs are pure functions of
// (seed, name, type, attempt). Deterministic IDs make fault-injected runs
// reproducible end to end: FaultTransport hashes the query ID into its
// fault decisions, so with a seeded client the same (seed, query,
// attempt) always meets the same fate, no matter how sweep workers are
// scheduled.
func NewSeededClient(t Transport, seed int64) *Client {
	return &Client{Transport: t, Retries: 2, seeded: true, seed: seed}
}

// Stats returns the running counters.
func (c *Client) Stats() ClientStats {
	return ClientStats{
		Queries:   c.queries.Load(),
		Attempts:  c.attempts.Load(),
		Retries:   c.retries.Load(),
		Recovered: c.recovered.Load(),
		Failed:    c.failed.Load(),
	}
}

// drawSalt is where unseeded clients' ID counters start: different from
// one process to the next, which is all an unseeded ID promises.
var drawSalt = uint64(time.Now().UnixNano())

// FNV-1a, 64 bits: what seeded IDs and fault decisions are hashed with.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvMix folds the eight bytes of v, low byte first, into the state h.
func fnvMix(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xFF
		h *= fnvPrime64
		v >>= 8
	}
	return h
}

// fnvMixString folds the bytes of s into the state h.
func fnvMixString(h uint64, s string) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}

// idFor produces the query ID for one attempt.
func (c *Client) idFor(name string, qtype Type, attempt int) uint16 {
	if !c.seeded {
		return uint16(fnvMix(fnvOffset64, drawSalt+c.draws.Add(1)))
	}
	h := fnvMix(fnvMix(fnvMix(fnvOffset64, uint64(c.seed)), uint64(qtype)), uint64(attempt))
	return uint16(fnvMixString(h, name))
}

// queryPool recycles query messages across Query calls. Safe because
// transports must not retain the query past Exchange (responses are
// decoded or copied, never aliased to it).
var queryPool = sync.Pool{
	New: func() any { return &Message{Questions: make([]Question, 1)} },
}

// Query sends a single question to server and returns the response,
// retransmitting (with a fresh ID per attempt, as real resolvers do) on
// transport errors. name must be canonical (see Canonical): it is sent as
// given.
func (c *Client) Query(ctx context.Context, server netip.Addr, name string, qtype Type) (*Message, error) {
	c.queries.Add(1)
	var lastErr error
	// One pooled query message serves every attempt; only the ID changes
	// per retransmission.
	q := queryPool.Get().(*Message)
	defer queryPool.Put(q)
	q.Header = Header{}
	q.Questions = append(q.Questions[:0], Question{Name: name, Type: qtype, Class: ClassIN})
	q.Answers, q.Authority, q.Additional = nil, nil, nil
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
		}
		c.attempts.Add(1)
		q.ID = c.idFor(name, qtype, attempt)
		resp, err := c.Transport.Exchange(ctx, server, q)
		if err != nil {
			lastErr = err
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			continue
		}
		if attempt > 0 {
			c.recovered.Add(1)
		}
		return resp, nil
	}
	c.failed.Add(1)
	return nil, fmt.Errorf("dns: query %s %s @%v failed: %w", name, qtype, server, lastErr)
}
