package dns

import (
	"context"
	"errors"
	"net/netip"
	"testing"
	"time"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// windowPolicy is a test RoutePolicy: one server unrouted inside a
// window, everything routed at a fixed latency otherwise.
type windowPolicy struct {
	cut    netip.Addr
	window simtime.Window
	lat    time.Duration
}

func (p windowPolicy) Route(day simtime.Day, server netip.Addr) (time.Duration, bool) {
	if server == p.cut && p.window.Contains(day) {
		return 0, false
	}
	return p.lat, true
}

func TestRouteTransportWindow(t *testing.T) {
	server := mustAddr("11.0.0.1")
	clock := netsim.NewClock(simtime.Date(2022, 3, 1))
	win := simtime.Window{From: simtime.Date(2022, 3, 3), To: simtime.Date(2022, 3, 5)}
	rt := NewRouteTransport(echoNet(server, mustAddr("11.0.1.1")), clock,
		windowPolicy{cut: server, window: win, lat: 40 * time.Millisecond})
	ctx := context.Background()
	q := func(id uint16) error {
		_, err := rt.Exchange(ctx, server, NewQuery(id, "x.ru.", TypeA))
		return err
	}

	start := time.Now()
	if err := q(1); err != nil {
		t.Fatalf("routed day: %v", err)
	}
	// The 40ms path latency is virtual: accumulated, never slept.
	if elapsed := time.Since(start); elapsed > 20*time.Millisecond {
		t.Errorf("routed exchange took %v — simulated latency must not be slept", elapsed)
	}

	for d := win.From; d <= win.To; d++ {
		clock.Set(d)
		err := q(2)
		if !errors.Is(err, ErrNoPath) || !errors.Is(err, ErrNoRoute) {
			t.Fatalf("day %s: err = %v, want ErrNoPath wrapping ErrNoRoute", d, err)
		}
	}
	clock.Set(win.To + 1)
	if err := q(3); err != nil {
		t.Fatalf("day after window: %v", err)
	}

	st := rt.Stats()
	if st.Exchanges != 5 || st.Unrouted != 3 {
		t.Errorf("stats = %+v, want 5 exchanges, 3 unrouted", st)
	}
	if st.SimLatency != 2*40*time.Millisecond {
		t.Errorf("SimLatency = %v, want 80ms from the two routed exchanges", st.SimLatency)
	}
}

func TestRouteTransportNilClockPinsDayZero(t *testing.T) {
	server := mustAddr("11.0.0.1")
	win := simtime.Window{From: 0, To: 0}
	rt := NewRouteTransport(echoNet(server, mustAddr("11.0.1.1")), nil,
		windowPolicy{cut: server, window: win})
	if _, err := rt.Exchange(context.Background(), server, NewQuery(1, "x.ru.", TypeA)); !errors.Is(err, ErrNoPath) {
		t.Fatalf("nil clock should pin routing to day 0: %v", err)
	}
}
