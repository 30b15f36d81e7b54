package dns

import (
	"context"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFaultProfilesReadersDuringUpdate exchanges through a FaultTransport
// from several goroutines while SetServer and SetDefault keep replacing
// its configuration. Every profile ever installed for the
// probed server drops everything, so whichever configuration a reader
// loads, the exchange must be an injected loss — a reader that saw a
// half-built table (no match, or the zero profile) would get an answer.
func TestFaultProfilesReadersDuringUpdate(t *testing.T) {
	server := mustAddr("11.0.0.1")
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 1, nil)
	drop := FaultProfile{Loss: 1}
	ft.SetDefault(drop)

	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for id := uint16(0); !stop.Load(); id++ {
				if p, ok := ft.profileFor(server); !ok || p.Loss != 1 {
					t.Errorf("profileFor = %+v, %v: not a profile any writer installed", p, ok)
					return
				}
				if _, err := ft.Exchange(context.Background(), server, NewQuery(id, "a.ru.", TypeA)); err == nil {
					t.Error("exchange got through a configuration that always drops")
					return
				}
			}
		}()
	}
	for i := 0; i < 400; i++ {
		other := netip.AddrFrom4([4]byte{11, 1, byte(i >> 8), byte(i)})
		switch i % 3 {
		case 0:
			ft.SetServer(other, FaultProfile{Loss: 0.5})
		case 1:
			ft.SetServer(server, drop)
		case 2:
			ft.SetDefault(drop)
		}
	}
	stop.Store(true)
	wg.Wait()

	// The writers' work is all there: the server's own profile first.
	if p, ok := ft.profileFor(mustAddr("11.1.0.0")); !ok || p.Loss != 0.5 {
		t.Errorf("server profile lost: %+v, %v", p, ok)
	}
	if p, ok := ft.profileFor(mustAddr("11.1.0.1")); !ok || p.Loss != 1 {
		t.Errorf("default profile lost for an unset server: %+v, %v", p, ok)
	}
	if p, ok := ft.profileFor(mustAddr("12.0.0.1")); !ok || p.Loss != 1 {
		t.Errorf("default profile lost: %+v, %v", p, ok)
	}
}
