package dns

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"
)

// Transport exchanges one DNS query with the server at addr and returns
// its response. Implementations: UDPTransport speaks real RFC 1035 UDP on
// the host network; MemNet short-circuits to in-process handlers, which is
// what makes multi-million-query measurement sweeps affordable.
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
// through the real codec, so everything above the socket layer behaves
// identically to UDP. MemNet is safe for concurrent use; binds are
// expected to be rare relative to exchanges, so the routing table is read
// without a lock and mu only serializes its writers.
type MemNet struct {
	mu     sync.Mutex
	routes *lfMap[netip.Addr, memRoute]
	// tap observes every exchanged query (e.g. for counting).
	tap atomic.Pointer[func(server netip.Addr, q *Message)]
	// intern dedups decoded names and RData across this network's
	// lifetime; the simulated world's name population is fixed, so the
	// steady-state decode allocates almost nothing.
	intern *wireIntern
}

// memRoute is what MemNet knows about one address: the bound handler
// and whether the address drops queries (used to simulate outages such
// as Netnod withdrawing service).
type memRoute struct {
	h    Handler
	down bool
}

// NewMemNet returns an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{
		routes: newLFMap[netip.Addr, memRoute](hashAddr),
		intern: newWireIntern(),
	}
}

// updateRoute applies f to addr's route, dropping routes left empty.
func (m *MemNet) updateRoute(addr netip.Addr, f func(*memRoute)) {
	m.mu.Lock()
	defer m.mu.Unlock()
	r, _ := m.routes.get(addr)
	f(&r)
	if r.h == nil && !r.down {
		m.routes.del(addr)
	} else {
		m.routes.put(addr, r)
	}
}

// Bind attaches a handler to an address, replacing any previous binding.
func (m *MemNet) Bind(addr netip.Addr, h Handler) {
	m.updateRoute(addr, func(r *memRoute) { r.h = h })
}

// Unbind removes the handler at addr.
func (m *MemNet) Unbind(addr netip.Addr) {
	m.updateRoute(addr, func(r *memRoute) { r.h = nil })
}

// SetUnreachable marks or clears an address as dropping all queries.
func (m *MemNet) SetUnreachable(addr netip.Addr, down bool) {
	m.updateRoute(addr, func(r *memRoute) { r.down = down })
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
// wire codec to keep the in-memory path faithful to the UDP path. Both
// decoded messages live in pooled arenas: the request's (with the
// handler's Reply) is taken back here once the response is encoded; the
// response's passes to the caller, who may Release it.
func (m *MemNet) Exchange(ctx context.Context, server netip.Addr, query *Message) (*Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	route, _ := m.routes.get(server)
	if tap := m.tap.Load(); tap != nil {
		(*tap)(server, query)
	}
	if route.down || route.h == nil {
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
	req, err := decodeArena(wire, m.intern)
	if err != nil {
		return nil, err
	}
	req.serving = true
	resp := route.h.ServeDNS(&req.m, netip.AddrFrom4([4]byte{127, 0, 0, 1}))
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
	out, err := decodeArena(wire, m.intern)
	if err != nil {
		return nil, err
	}
	if out.m.ID != query.ID {
		out.recycle()
		return nil, ErrIDMismatch
	}
	return &out.m, nil
}

// UDPTransport exchanges queries over real UDP sockets. Port is the
// destination port (53 by default; the simulated servers listen on an
// ephemeral port, so tests inject it).
type UDPTransport struct {
	Port    int
	Timeout time.Duration
}

// Exchange implements Transport over UDP with a single datagram
// round-trip; retries are the Client's job.
func (t *UDPTransport) Exchange(ctx context.Context, server netip.Addr, query *Message) (*Message, error) {
	port := t.Port
	if port == 0 {
		port = 53
	}
	timeout := t.Timeout
	if timeout == 0 {
		timeout = 2 * time.Second
	}
	wb := getWireBuf()
	defer putWireBuf(wb)
	wire, err := query.AppendEncode((*wb)[:0])
	if err != nil {
		return nil, err
	}
	*wb = wire
	d := net.Dialer{}
	conn, err := d.DialContext(ctx, "udp", netip.AddrPortFrom(server, uint16(port)).String())
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if ctxDeadline, ok := ctx.Deadline(); ok && ctxDeadline.Before(deadline) {
		deadline = ctxDeadline
	}
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if _, err := conn.Write(wire); err != nil {
		return nil, err
	}
	rb := getWireBuf()
	defer putWireBuf(rb)
	buf := (*rb)[:cap(*rb)]
	if len(buf) < maxMsgSize {
		buf = make([]byte, maxMsgSize)
		*rb = buf
	}
	for {
		n, err := conn.Read(buf)
		if err != nil {
			return nil, err
		}
		resp, err := Decode(buf[:n])
		if err != nil {
			// Garbled datagram: keep listening until the deadline.
			continue
		}
		if resp.ID != query.ID {
			continue // stray or spoofed response
		}
		return resp, nil
	}
}

// Client issues queries over a Transport with ID generation, bounded
// retransmission, and jittered exponential backoff. SERVFAIL and
// truncated responses are treated as retryable — on a flapping path both
// are transient, and a single-attempt sweep that takes them at face
// value systematically overcounts failures.
type Client struct {
	Transport Transport
	// Retries is the number of re-sends after the first attempt.
	Retries int
	// Backoff is the base delay before the first retry; each further
	// retry doubles it, scaled by jitter in [0.5, 1). Zero (the default)
	// retries immediately — the in-memory wire has no congestion to wait
	// out, and sweeps over it must not sleep.
	Backoff time.Duration
	// MaxBackoff caps the per-retry delay (0 means 16×Backoff).
	MaxBackoff time.Duration

	// seeded clients derive query IDs and jitter deterministically from
	// seed so lossy runs are reproducible; unseeded clients mix a counter
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
	// least one failed, flapped, or truncated attempt.
	Recovered int64
	// Failed is the number of queries that exhausted every attempt.
	Failed int64
}

// NewClient returns a client over the given transport with random IDs.
func NewClient(t Transport) *Client {
	return &Client{Transport: t, Retries: 2}
}

// NewSeededClient returns a client whose query IDs and backoff jitter are
// pure functions of (seed, name, type, attempt). Deterministic IDs make
// fault-injected runs reproducible end to end: FaultTransport hashes the
// query ID into its fault decisions, so with a seeded client the same
// (seed, query, attempt) always meets the same fate, no matter how sweep
// workers are scheduled.
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

// backoff sleeps before retry number attempt (1-based), honoring ctx.
func (c *Client) backoff(ctx context.Context, name string, attempt int) error {
	if c.Backoff <= 0 {
		return nil
	}
	d := c.Backoff << (attempt - 1)
	max := c.MaxBackoff
	if max <= 0 {
		max = 16 * c.Backoff
	}
	if d > max || d <= 0 { // d <= 0 guards shift overflow
		d = max
	}
	// Jitter in [0.5, 1): the ID hash again, under a type no query carries.
	d = time.Duration(float64(d) * (0.5 + float64(c.idFor(name, Type(0xFFFF), attempt))/float64(1<<17)))
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// queryPool recycles query messages across Query calls. Safe because
// transports must not retain the query past Exchange (responses are
// decoded or copied, never aliased to it).
var queryPool = sync.Pool{
	New: func() any { return &Message{Questions: make([]Question, 1)} },
}

// Query sends a single question to server and returns the response,
// retransmitting (with a fresh ID per attempt, as real resolvers do) on
// errors, SERVFAIL flaps, and truncated responses. A SERVFAIL or
// truncated response that persists through every attempt is returned to
// the caller as-is — it is a response, and the caller decides whether to
// fail over to another server.
func (c *Client) Query(ctx context.Context, server netip.Addr, name string, qtype Type) (*Message, error) {
	c.queries.Add(1)
	var lastErr error
	var lastResp *Message
	// One pooled query message serves every attempt; only the ID changes
	// per retransmission.
	q := queryPool.Get().(*Message)
	defer queryPool.Put(q)
	q.Header = Header{}
	q.Questions = append(q.Questions[:0], Question{Name: Canonical(name), Type: qtype, Class: ClassIN})
	q.Answers, q.Authority, q.Additional = nil, nil, nil
	for attempt := 0; attempt <= c.Retries; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			if err := c.backoff(ctx, name, attempt); err != nil {
				return nil, err
			}
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
		if resp.RCode == RCodeServFail || resp.Truncated {
			lastResp, lastErr = resp, nil
			continue
		}
		if attempt > 0 {
			c.recovered.Add(1)
		}
		return resp, nil
	}
	if lastResp != nil {
		return lastResp, nil
	}
	c.failed.Add(1)
	return nil, fmt.Errorf("dns: query %s %s @%v failed: %w", name, qtype, server, lastErr)
}
