package grid

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"syscall"
	"time"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// Worker executes grid work units: it dials the coordinator, proves its
// configuration fingerprint, then measures every unit it is leased and
// streams the sorted results back, heartbeating in between so its leases
// stay alive. The worker's pipeline is built against its own copy of the
// world (same seed, same options), which is what makes unit results
// deterministic across workers — any worker measuring unit i produces
// the same bytes.
type Worker struct {
	// Pipeline measures units. Only MeasureUnit runs here; the worker
	// never touches its pipeline's store or journal.
	Pipeline *openintel.Pipeline
	// Name identifies the worker in coordinator logs.
	Name string
	// Fingerprint must match the coordinator's or the connection is
	// rejected at handshake.
	Fingerprint uint64
	// HeartbeatEvery is the lease-renewal interval (default
	// DefaultLeaseTTL/3 — three beats per lease TTL).
	HeartbeatEvery time.Duration
	// DialRetryFor keeps re-dialing a refused address for this long
	// before giving up (default 10s), so workers may start before the
	// coordinator listens.
	DialRetryFor time.Duration
	// Logf, if set, receives operational log lines.
	Logf func(format string, args ...any)

	// ExitAfterUnits, when > 0, makes the worker abruptly close its
	// connection upon receiving its (n+1)th assignment — a test hook
	// simulating a worker killed mid-unit.
	ExitAfterUnits int
	// HangAfterUnits, when > 0, makes the worker go silent upon its
	// (n+1)th assignment — connection open, no results, no heartbeats —
	// until ctx is cancelled: the lease-expiry path.
	HangAfterUnits int
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// Run connects to the coordinator at addr and serves assignments until
// the coordinator says done (nil), the context is cancelled, or the
// connection fails.
func (w *Worker) Run(ctx context.Context, addr string) error {
	nc, err := w.dialRetry(ctx, addr)
	if err != nil {
		return fmt.Errorf("grid: worker %s: dial %s: %w", w.Name, addr, err)
	}
	defer nc.Close()
	conn := &framedConn{nc: nc}

	nc.SetDeadline(time.Now().Add(handshakeTimeout))
	if err := conn.send(helloMsg{Name: w.Name, Fingerprint: w.Fingerprint}); err != nil {
		return fmt.Errorf("grid: worker %s: hello: %w", w.Name, err)
	}
	t, r, err := conn.recv()
	if err != nil {
		return fmt.Errorf("grid: worker %s: handshake: %w", w.Name, err)
	}
	switch t {
	case msgWelcome:
		if _, err := decodeWelcome(r); err != nil {
			return fmt.Errorf("grid: worker %s: %w", w.Name, err)
		}
	case msgReject:
		rej, err := decodeReject(r)
		if err != nil {
			return fmt.Errorf("grid: worker %s: %w", w.Name, err)
		}
		return fmt.Errorf("grid: worker %s rejected: %s", w.Name, rej.Reason)
	default:
		return fmt.Errorf("grid: worker %s: unexpected handshake message type %d", w.Name, t)
	}
	nc.SetDeadline(time.Time{})
	w.logf("grid: worker %s connected to %s", w.Name, addr)

	// A cancelled worker closes its connection so the blocking read
	// returns; the coordinator requeues whatever it held.
	unwatch := closeOnDone(ctx, nc)
	defer unwatch()

	var hung atomic.Bool
	hbStop := make(chan struct{})
	defer close(hbStop)
	go w.heartbeatLoop(conn, &hung, hbStop)

	completed := 0
	var seeds []string
	haveDay := false
	var curDay simtime.Day
	for {
		t, r, err := conn.recv()
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) {
				// The coordinator hung up: for a worker that is the same
				// as being told to drain.
				w.logf("grid: worker %s: coordinator closed the connection (%d units served)", w.Name, completed)
				return nil
			}
			return fmt.Errorf("grid: worker %s: read: %w", w.Name, err)
		}
		switch t {
		case msgDone:
			w.logf("grid: worker %s done (%d units)", w.Name, completed)
			return nil
		case msgAssign:
			msg, err := decodeAssign(r)
			if err != nil {
				return fmt.Errorf("grid: worker %s: %w", w.Name, err)
			}
			if w.ExitAfterUnits > 0 && completed >= w.ExitAfterUnits {
				// Die mid-unit: the assignment is accepted by the wire
				// and never answered; the connection just vanishes.
				nc.Close()
				return nil
			}
			if w.HangAfterUnits > 0 && completed >= w.HangAfterUnits {
				// Go catatonic: connection open, heartbeats stopped, the
				// lease left to expire.
				hung.Store(true)
				<-ctx.Done()
				return ctx.Err()
			}
			if !haveDay || msg.Day != curDay {
				// Day boundary: move this worker's world to the sweep day
				// and flush resolver caches, exactly as Sweep does.
				if w.Pipeline.Clock != nil {
					w.Pipeline.Clock.Set(msg.Day)
				}
				w.Pipeline.Resolver.FlushCache()
				seeds = w.Pipeline.Seeds.ZoneSnapshot(msg.Day)
				curDay, haveDay = msg.Day, true
			}
			if int(msg.End) > len(seeds) {
				return fmt.Errorf("grid: worker %s: assignment [%d, %d) beyond inventory of %d", w.Name, msg.Start, msg.End, len(seeds))
			}
			res, err := w.Pipeline.MeasureUnit(ctx, msg.Day, seeds[msg.Start:msg.End])
			if err != nil {
				return err
			}
			batch, err := store.EncodeMeasurementBatch(msg.Day, res.Measurements)
			if err != nil {
				return fmt.Errorf("grid: worker %s: encoding unit %d: %w", w.Name, msg.Unit, err)
			}
			out := resultMsg{
				Unit:           msg.Unit,
				Seq:            msg.Seq,
				Day:            msg.Day,
				Failed:         uint32(res.Failed),
				NXDomain:       uint32(res.NXDomain),
				Unreachable:    uint32(res.Unreachable),
				Retries:        uint32(res.Retries),
				Recovered:      uint32(res.Recovered),
				CacheHits:      uint64(res.CacheHits),
				CacheMisses:    uint64(res.CacheMisses),
				CacheCoalesced: uint64(res.CacheCoalesced),
				Latency:        res.Latency,
				Batch:          batch,
			}
			if err := conn.send(out); err != nil {
				return fmt.Errorf("grid: worker %s: sending unit %d: %w", w.Name, msg.Unit, err)
			}
			completed++
		default:
			return fmt.Errorf("grid: worker %s: unexpected message type %d", w.Name, t)
		}
	}
}

func (w *Worker) heartbeatLoop(conn *framedConn, hung *atomic.Bool, stop <-chan struct{}) {
	every := w.HeartbeatEvery
	if every <= 0 {
		every = DefaultLeaseTTL / 3
	}
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			if hung.Load() {
				return
			}
			if err := conn.send(bareMsg(msgHeartbeat)); err != nil {
				return // the main read loop surfaces the connection error
			}
		}
	}
}

// dialRetry dials addr, retrying refused connections for DialRetryFor so
// worker processes may start ahead of the coordinator. Only
// ECONNREFUSED is retried — nobody listening yet is the one condition
// startup ordering explains; any other dial error (bad address, DNS
// failure, unreachable network) is misconfiguration and fails fast.
func (w *Worker) dialRetry(ctx context.Context, addr string) (net.Conn, error) {
	var d net.Dialer
	window := w.DialRetryFor
	if window <= 0 {
		window = 10 * time.Second
	}
	deadline := time.Now().Add(window)
	for {
		nc, err := d.DialContext(ctx, "tcp", addr)
		if err == nil {
			return nc, nil
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		if !errors.Is(err, syscall.ECONNREFUSED) || time.Now().After(deadline) {
			return nil, err
		}
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(100 * time.Millisecond):
		}
	}
}

// closeOnDone force-closes nc when ctx finishes so blocked reads return;
// the returned func stops the watcher.
func closeOnDone(ctx context.Context, nc net.Conn) func() {
	stopped := make(chan struct{})
	go func() {
		select {
		case <-ctx.Done():
			nc.Close()
		case <-stopped:
		}
	}()
	return func() { close(stopped) }
}
