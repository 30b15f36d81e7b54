package grid

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Defaults. The shard size targets units small enough that losing one to
// a dead worker costs little, large enough that framing overhead is
// noise; the lease TTL assumes workers heartbeat at TTL/3.
const (
	DefaultShardSize = 2000
	DefaultLeaseTTL  = 10 * time.Second

	// localAttempts is how many worker lease expiries a unit tolerates
	// before the coordinator measures it locally even though workers are
	// connected — a unit must always make progress, no matter how the
	// worker population misbehaves.
	localAttempts = 2

	// handshakeTimeout bounds the hello/welcome exchange so a stuck or
	// non-protocol client cannot pin the accept loop's resources.
	handshakeTimeout = 10 * time.Second

	// monitorTick is the lease-scan cadence. It doubles as the liveness
	// floor for every cond-based wait (claim loops, the local executor),
	// so it stays small relative to any plausible TTL.
	monitorTick = 50 * time.Millisecond
)

// Unit lease states.
const (
	unitPending = iota // queued, unowned
	unitLeased         // assigned to a worker (owner set) or running locally (owner nil)
	unitDone           // result merged
)

// Coordinator shards sweep days into contiguous work units and leases
// them to connected workers, falling back to local execution when no
// workers are live. One SweepDay call runs at a time; the zero value is
// not usable — construct with NewCoordinator.
type Coordinator struct {
	// Pipeline supplies the inventory (Seeds), the day clock, the store
	// and journal the merged sweep commits into, and local execution via
	// MeasureUnit when no workers are available.
	Pipeline *openintel.Pipeline
	// ShardSize is the number of domains per work unit (default
	// DefaultShardSize).
	ShardSize int
	// LeaseTTL is how long a worker may hold a unit without a heartbeat
	// before it is reassigned (default DefaultLeaseTTL).
	LeaseTTL time.Duration
	// Fingerprint identifies the measurement configuration; workers whose
	// hello carries a different fingerprint are rejected, because their
	// results would come from a different world.
	Fingerprint uint64
	// Logf, if set, receives operational log lines.
	Logf func(format string, args ...any)

	metrics Metrics

	mu    sync.Mutex
	cond  *sync.Cond
	ln    net.Listener
	conns map[*workerConn]bool
	live  int // connected workers not under suspicion
	seq   uint64
	sweep *sweepState
	close bool

	monitorStop chan struct{}
	monitorDone chan struct{}
	acceptDone  chan struct{}
}

// sweepState is the in-flight day.
type sweepState struct {
	day   simtime.Day
	seeds []string
	units []*unit
	done  int
}

// unit is one contiguous slice [start, end) of the day's inventory and
// its lease: pending → leased (seq, owner, deadline) → done.
type unit struct {
	idx        int
	start, end int
	state      int
	seq        uint64
	owner      *workerConn // nil while pending or when running locally
	deadline   time.Time
	attempts   int // lease expiries + connection losses suffered
	started    time.Time
	out        *openintel.UnitResult // the merge-ready result, from a worker or the local executor
}

// workerConn is one accepted worker connection.
type workerConn struct {
	framedConn
	name string

	// Guarded by the coordinator mutex:
	suspect bool // lease expired without heartbeat; no new assignments
	gone    bool
}

// NewCoordinator returns a coordinator driving the given pipeline.
func NewCoordinator(p *openintel.Pipeline) *Coordinator {
	c := &Coordinator{
		Pipeline:  p,
		ShardSize: DefaultShardSize,
		LeaseTTL:  DefaultLeaseTTL,
		conns:     map[*workerConn]bool{},
	}
	c.cond = sync.NewCond(&c.mu)
	if p != nil {
		c.metrics.SetStore(p.Store)
	}
	return c
}

func (c *Coordinator) logf(format string, args ...any) {
	if c.Logf != nil {
		c.Logf(format, args...)
	}
}

// Metrics exposes the coordinator's counters.
func (c *Coordinator) Metrics() *Metrics { return &c.metrics }

// Addr returns the listen address ("" before Listen).
func (c *Coordinator) Addr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ln == nil {
		return ""
	}
	return c.ln.Addr().String()
}

// Listen starts accepting workers on addr (host:port; port 0 picks a free
// one) and returns the bound address.
func (c *Coordinator) Listen(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("grid: listen %s: %w", addr, err)
	}
	c.mu.Lock()
	c.ln = ln
	c.monitorStop = make(chan struct{})
	c.monitorDone = make(chan struct{})
	c.acceptDone = make(chan struct{})
	c.mu.Unlock()
	go c.acceptLoop(ln)
	go c.monitor()
	return ln.Addr().String(), nil
}

// WaitWorkers blocks until at least n workers are connected and live, or
// ctx expires.
func (c *Coordinator) WaitWorkers(ctx context.Context, n int) error {
	stop := c.wakeOnDone(ctx)
	defer stop()
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.live < n && !c.close {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("grid: waiting for %d workers (%d live): %w", n, c.live, err)
		}
		c.cond.Wait()
	}
	if c.close {
		return fmt.Errorf("grid: coordinator closed while waiting for workers")
	}
	return nil
}

// wakeOnDone broadcasts the coordinator cond when ctx finishes, so
// cond-based waits notice cancellation. The returned stop func releases
// the watcher.
func (c *Coordinator) wakeOnDone(ctx context.Context) func() {
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			c.cond.Broadcast()
		case <-stopped:
		}
	}()
	return func() { close(stopped) }
}

// Close stops accepting, tells workers to drain, closes every
// connection, and waits for the background loops to exit. Safe to call
// once.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.close {
		c.mu.Unlock()
		return nil
	}
	c.close = true
	ln := c.ln
	conns := make([]*workerConn, 0, len(c.conns))
	for w := range c.conns {
		conns = append(conns, w)
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	for _, w := range conns {
		// Best effort: a worker that misses the done frame exits on the
		// connection close instead.
		w.nc.SetWriteDeadline(time.Now().Add(time.Second))
		_ = w.send(bareMsg(msgDone))
		_ = w.nc.Close()
	}
	if ln != nil {
		_ = ln.Close()
		close(c.monitorStop)
		<-c.monitorDone
		<-c.acceptDone
	}
	return nil
}

func (c *Coordinator) acceptLoop(ln net.Listener) {
	defer close(c.acceptDone)
	for {
		nc, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go c.handshake(nc)
	}
}

// handshake validates a new connection's hello and registers the worker.
func (c *Coordinator) handshake(nc net.Conn) {
	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	w := &workerConn{framedConn: framedConn{nc: nc}}
	t, r, err := w.recv()
	if err == nil && t != msgHello {
		err = wireErrorf("handshake opened with message type %d", t)
	}
	var hello helloMsg
	if err == nil {
		hello, err = decodeHello(r)
	}
	if err != nil {
		c.metrics.add(&c.metrics.framesRejected, 1)
		nc.Close()
		return
	}
	if hello.Fingerprint != c.Fingerprint {
		c.logf("grid: rejecting worker %s: config or format fingerprint %016x != %016x", hello.Name, hello.Fingerprint, c.Fingerprint)
		// Best effort: the connection closes either way.
		_ = w.send(rejectMsg{Reason: fmt.Sprintf("fingerprint mismatch (config or batch format): worker %016x, coordinator %016x", hello.Fingerprint, c.Fingerprint)})
		nc.Close()
		return
	}
	if err := w.send(welcomeMsg{Fingerprint: c.Fingerprint}); err != nil {
		nc.Close()
		return
	}
	nc.SetDeadline(time.Time{})
	w.name = hello.Name

	c.mu.Lock()
	if c.close {
		c.mu.Unlock()
		nc.Close()
		return
	}
	c.conns[w] = true
	c.live++
	c.cond.Broadcast()
	c.mu.Unlock()
	c.metrics.workerDelta(1)
	c.logf("grid: worker %s connected (%s)", w.name, nc.RemoteAddr())

	go c.assignLoop(w)
	c.readLoop(w)
}

// dropConn removes a dead connection and requeues whatever it held.
func (c *Coordinator) dropConn(w *workerConn, cause error) {
	c.mu.Lock()
	if w.gone {
		c.mu.Unlock()
		return
	}
	w.gone = true
	closing := c.close
	delete(c.conns, w)
	if !w.suspect {
		c.live--
	}
	requeued := 0
	if c.sweep != nil {
		for _, u := range c.sweep.units {
			if u.state == unitLeased && u.owner == w {
				c.requeueLocked(u)
				requeued++
			}
		}
	}
	c.cond.Broadcast()
	c.mu.Unlock()

	w.nc.Close()
	c.metrics.workerDelta(-1)
	if cause != nil && !closing {
		// Connection loss during shutdown is the coordinator hanging up,
		// not a worker failure.
		c.metrics.add(&c.metrics.workerFailures, 1)
	}
	if (requeued > 0 || cause != nil) && !closing {
		c.logf("grid: worker %s disconnected (%d units requeued): %v", w.name, requeued, cause)
	}
}

// requeueLocked returns a leased unit to the pending queue. Caller holds
// the coordinator mutex (the metrics counter takes its own leaf lock).
func (c *Coordinator) requeueLocked(u *unit) {
	u.state = unitPending
	u.owner = nil
	u.attempts++
	c.metrics.add(&c.metrics.unitsReassigned, 1)
}

// readLoop processes a worker's frames until the connection dies.
func (c *Coordinator) readLoop(w *workerConn) {
	for {
		t, r, err := w.recv()
		if err != nil {
			if _, ok := err.(*wireError); ok {
				// Corrupt frame: the stream cannot be trusted past this
				// point, so the connection dies and the lease machinery
				// recovers the worker's units.
				c.metrics.add(&c.metrics.framesRejected, 1)
			}
			c.dropConn(w, err)
			return
		}
		switch t {
		case msgResult:
			msg, err := decodeResult(r)
			if err != nil {
				c.metrics.add(&c.metrics.framesRejected, 1)
				c.dropConn(w, err)
				return
			}
			if err := c.handleResult(w, msg); err != nil {
				c.dropConn(w, err)
				return
			}
		case msgHeartbeat:
			c.heartbeat(w)
		default:
			c.metrics.add(&c.metrics.framesRejected, 1)
			c.dropConn(w, wireErrorf("unexpected message type %d from worker", t))
			return
		}
	}
}

// heartbeat renews every lease the worker holds and lifts suspicion.
func (c *Coordinator) heartbeat(w *workerConn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w.gone {
		return
	}
	if w.suspect {
		w.suspect = false
		c.live++
		c.cond.Broadcast()
	}
	if c.sweep == nil {
		return
	}
	deadline := time.Now().Add(c.leaseTTL())
	for _, u := range c.sweep.units {
		if u.state == unitLeased && u.owner == w {
			u.deadline = deadline
		}
	}
}

func (c *Coordinator) leaseTTL() time.Duration {
	if c.LeaseTTL > 0 {
		return c.LeaseTTL
	}
	return DefaultLeaseTTL
}

func (c *Coordinator) shardSize() int {
	if c.ShardSize > 0 {
		return c.ShardSize
	}
	return DefaultShardSize
}

// maxOutstanding is how many units one worker may hold at once: two, so
// a worker always has the next unit queued behind the one it is
// measuring, without letting a single fast claimer starve the rest.
const maxOutstanding = 2

// assignLoop leases pending units to one worker until the connection or
// the coordinator closes.
func (c *Coordinator) assignLoop(w *workerConn) {
	for {
		c.mu.Lock()
		var u *unit
		for {
			if c.close || w.gone {
				c.mu.Unlock()
				return
			}
			u = c.claimableLocked(w)
			if u != nil {
				break
			}
			c.cond.Wait()
		}
		c.seq++
		u.state = unitLeased
		u.seq = c.seq
		u.owner = w
		u.deadline = time.Now().Add(c.leaseTTL())
		u.started = time.Now()
		msg := assignMsg{
			Unit:  uint32(u.idx),
			Seq:   u.seq,
			Day:   c.sweep.day,
			Start: uint32(u.start),
			End:   uint32(u.end),
		}
		c.mu.Unlock()

		c.metrics.add(&c.metrics.unitsDispatched, 1)
		if err := w.send(msg); err != nil {
			c.dropConn(w, err)
			return
		}
	}
}

// claimableLocked picks the next pending unit this worker may take, or
// nil. Caller holds the coordinator mutex.
func (c *Coordinator) claimableLocked(w *workerConn) *unit {
	if c.sweep == nil || w.suspect {
		return nil
	}
	held := 0
	var pick *unit
	for _, u := range c.sweep.units {
		switch {
		case u.state == unitLeased && u.owner == w:
			held++
			if held >= maxOutstanding {
				return nil
			}
		case u.state == unitPending && pick == nil:
			pick = u
		}
	}
	return pick
}

// monitor expires leases on a fixed tick. The broadcast doubles as the
// recheck heartbeat for every cond-based wait.
func (c *Coordinator) monitor() {
	defer close(c.monitorDone)
	t := time.NewTicker(monitorTick)
	defer t.Stop()
	for {
		select {
		case <-c.monitorStop:
			return
		case now := <-t.C:
			c.expireLeases(now)
		}
	}
}

func (c *Coordinator) expireLeases(now time.Time) {
	c.mu.Lock()
	if c.sweep != nil {
		for _, u := range c.sweep.units {
			if u.state != unitLeased || u.owner == nil || now.Before(u.deadline) {
				continue
			}
			// The owner went quiet past the TTL: quarantine it (it keeps
			// its connection — a heartbeat revives it) and requeue.
			if !u.owner.suspect {
				u.owner.suspect = true
				c.live--
				c.logf("grid: worker %s lease on unit %d expired; quarantined", u.owner.name, u.idx)
			}
			c.requeueLocked(u)
		}
	}
	// The broadcast doubles as the periodic recheck for every waiter.
	c.cond.Broadcast()
	c.mu.Unlock()
}

// handleResult validates and records a unit result. A non-nil return is
// a protocol violation that kills the connection; duplicates and stale
// leases are normal operation and absorbed here.
func (c *Coordinator) handleResult(w *workerConn, msg resultMsg) error {
	day, ms, err := store.DecodeMeasurementBatch(msg.Batch)
	if err != nil {
		return fmt.Errorf("grid: result unit %d: %w", msg.Unit, err)
	}
	if day != msg.Day {
		return wireErrorf("result unit %d: batch day %s != message day %s", msg.Unit, day, msg.Day)
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sweep == nil || c.sweep.day != msg.Day {
		// A result for a day no longer in flight: a worker that outlived
		// a cancelled sweep. Harmless.
		c.metrics.add(&c.metrics.staleResults, 1)
		return nil
	}
	if int(msg.Unit) >= len(c.sweep.units) {
		return wireErrorf("result names unit %d of %d", msg.Unit, len(c.sweep.units))
	}
	u := c.sweep.units[msg.Unit]
	if u.state == unitDone {
		// At-most-once merge: the unit was finished by someone else
		// (reassignment raced the original worker's result).
		c.metrics.add(&c.metrics.duplicateUnits, 1)
		if u.owner == w {
			u.owner = nil
		}
		c.cond.Broadcast()
		return nil
	}
	if len(ms) != u.end-u.start {
		return wireErrorf("result unit %d carries %d measurements, want %d", msg.Unit, len(ms), u.end-u.start)
	}
	if u.seq != msg.Seq {
		// The lease this result answers already expired, but the unit is
		// still open and unit content is deterministic — identical no
		// matter which worker measured it — so the work is usable.
		c.metrics.add(&c.metrics.staleResults, 1)
	}
	u.out = &openintel.UnitResult{
		Measurements:   ms,
		Failed:         int(msg.Failed),
		NXDomain:       int(msg.NXDomain),
		Unreachable:    int(msg.Unreachable),
		Retries:        int(msg.Retries),
		Recovered:      int(msg.Recovered),
		CacheHits:      int64(msg.CacheHits),
		CacheMisses:    int64(msg.CacheMisses),
		CacheCoalesced: int64(msg.CacheCoalesced),
		Latency:        msg.Latency,
	}
	u.state = unitDone
	u.owner = nil
	c.sweep.done++
	c.metrics.add(&c.metrics.unitsCompleted, 1)
	if !u.started.IsZero() {
		c.metrics.observeUnit(time.Since(u.started))
	}
	c.cond.Broadcast()
	return nil
}

// SweepDay measures one day across the grid: it shards the day's
// inventory, waits for every unit to be measured (by workers, or locally
// when none are live), merges unit results in unit-index order, and
// commits the sweep through the pipeline — producing exactly the store
// mutations and journal bytes Pipeline.Sweep would.
func (c *Coordinator) SweepDay(ctx context.Context, day simtime.Day) (openintel.SweepStats, error) {
	begin := time.Now()
	p := c.Pipeline
	// Day context for local execution: the coordinator's own world moves
	// to the sweep day exactly as a single-process sweep would.
	if p.Clock != nil {
		p.Clock.Set(day)
	}
	p.Resolver.FlushCache()
	seeds := p.Seeds.ZoneSnapshot(day)

	shard := c.shardSize()
	units := make([]*unit, 0, (len(seeds)+shard-1)/shard)
	for start := 0; start < len(seeds); start += shard {
		end := start + shard
		if end > len(seeds) {
			end = len(seeds)
		}
		units = append(units, &unit{idx: len(units), start: start, end: end})
	}

	c.mu.Lock()
	if c.sweep != nil {
		c.mu.Unlock()
		return openintel.SweepStats{}, fmt.Errorf("grid: SweepDay(%s): a sweep is already in flight", day)
	}
	c.sweep = &sweepState{day: day, seeds: seeds, units: units}
	c.cond.Broadcast()
	c.mu.Unlock()

	defer func() {
		c.mu.Lock()
		c.sweep = nil
		c.cond.Broadcast()
		c.mu.Unlock()
	}()

	stopWake := c.wakeOnDone(ctx)
	defer stopWake()

	localCtx, stopLocal := context.WithCancel(ctx)
	defer stopLocal()
	localDone := make(chan struct{})
	go func() {
		defer close(localDone)
		c.localExecutor(localCtx, day, seeds)
	}()

	c.mu.Lock()
	for c.sweep.done < len(units) && ctx.Err() == nil && !c.close {
		c.cond.Wait()
	}
	closed := c.close
	c.mu.Unlock()

	stopLocal()
	<-localDone

	if err := ctx.Err(); err != nil {
		return openintel.SweepStats{}, err
	}
	if closed {
		return openintel.SweepStats{}, fmt.Errorf("grid: coordinator closed mid-sweep %s", day)
	}

	// Merge in unit-index order — never arrival order — so the collected
	// slice is the inventory in zone order, just as a single process
	// would have enumerated it.
	stats := openintel.SweepStats{Day: day, JournalStats: store.JournalStats{Domains: len(seeds)}}
	var hist openintel.LatencyHistogram
	collected := make([]store.Measurement, 0, len(seeds))
	for _, u := range units {
		o := u.out
		collected = append(collected, o.Measurements...)
		stats.Failed += o.Failed
		stats.NXDomain += o.NXDomain
		stats.Unreachable += o.Unreachable
		stats.Retries += o.Retries
		stats.Recovered += o.Recovered
		stats.CacheHits += o.CacheHits
		stats.CacheMisses += o.CacheMisses
		stats.CacheCoalesced += o.CacheCoalesced
		hist.Merge(&o.Latency)
	}
	c.metrics.addCache(stats.CacheHits, stats.CacheMisses, stats.CacheCoalesced)
	stats.Duration = time.Since(begin)
	stats.LatencyP50 = hist.Quantile(0.50)
	stats.LatencyP90 = hist.Quantile(0.90)
	stats.LatencyP99 = hist.Quantile(0.99)
	if err := p.CommitSweep(stats, collected); err != nil {
		return stats, fmt.Errorf("grid: committing sweep %s: %w", day, err)
	}
	return stats, nil
}

// localExecutor measures units in the coordinator process: all of them
// when no workers are live (graceful degradation to single-process
// collection), and any unit that has burned localAttempts leases (so
// pathological workers cannot stall a unit forever).
func (c *Coordinator) localExecutor(ctx context.Context, day simtime.Day, seeds []string) {
	for {
		c.mu.Lock()
		var u *unit
		for {
			if ctx.Err() != nil || c.close || c.sweep == nil || c.sweep.done >= len(c.sweep.units) {
				c.mu.Unlock()
				return
			}
			for _, cand := range c.sweep.units {
				if cand.state != unitPending {
					continue
				}
				if c.live == 0 || cand.attempts >= localAttempts {
					u = cand
					break
				}
			}
			if u != nil {
				break
			}
			c.cond.Wait()
		}
		c.seq++
		u.state = unitLeased
		u.seq = c.seq
		u.owner = nil // local: the monitor never expires ownerless leases
		u.started = time.Now()
		seq := u.seq
		start, end := u.start, u.end
		c.mu.Unlock()

		res, err := c.Pipeline.MeasureUnit(ctx, day, seeds[start:end])
		if err != nil {
			// Cancelled mid-unit; the sweep is aborting anyway.
			return
		}

		c.recordLocal(u, seq, res)
	}
}

// recordLocal merges a locally measured unit — unless the unit was
// finished while MeasureUnit ran. A worker result answering an expired
// lease can land in handleResult mid-measurement and close the unit;
// recording on top of that would increment sweep.done twice for one
// unit, letting SweepDay's wait loop exit with other units still open
// (and their nil out dereferenced in the merge). The seq check equally
// rejects recording if the local lease was ever superseded.
func (c *Coordinator) recordLocal(u *unit, seq uint64, res openintel.UnitResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.sweep == nil || u.state != unitLeased || u.owner != nil || u.seq != seq {
		// Lost the race: unit content is deterministic, so the local
		// measurement is an exact duplicate of whatever was merged.
		c.metrics.add(&c.metrics.duplicateUnits, 1)
		return
	}
	u.out = &res
	u.state = unitDone
	c.sweep.done++
	c.metrics.add(&c.metrics.unitsLocal, 1)
	c.metrics.observeUnit(time.Since(u.started))
	c.cond.Broadcast()
}
