package netsim

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"whereru/internal/simtime"
)

// TestClockReadersDuringSet runs Now from several goroutines beside a
// writer that only ever moves the clock forward: a reader must never see
// the clock go back, and the final day is the last one set. Under -race
// this is the check that Now takes no lock and needs none.
func TestClockReadersDuringSet(t *testing.T) {
	const days = 5000
	c := NewClock(simtime.StudyStart)
	var stop atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := c.Now()
			for !stop.Load() {
				now := c.Now()
				if now < last {
					t.Errorf("clock went back from %s to %s", last, now)
					return
				}
				last = now
			}
		}()
	}
	for i := 1; i <= days; i++ {
		if i%2 == 0 {
			c.Set(simtime.StudyStart.Add(i))
		} else {
			c.Advance(1)
		}
	}
	stop.Store(true)
	wg.Wait()
	if got := c.Now(); got != simtime.StudyStart.Add(days) {
		t.Fatalf("clock ended on %s, want %s", got, simtime.StudyStart.Add(days))
	}
}

// TestOriginASDuringAllocation looks addresses up while prefixes are
// still being allocated and addresses handed out: an address that has an
// origin keeps it, an address handed out by NextAddr has its AS as origin
// at once, and Allocations never shrinks.
func TestOriginASDuringAllocation(t *testing.T) {
	const ases, prefixesPerAS = 8, 40
	in := NewInternet(simtime.StudyStart)
	for a := 0; a < ases; a++ {
		in.MustRegisterAS(AS{Number: ASN(64500 + a), Country: "RU"})
	}
	var mu sync.Mutex
	var assigned []netip.Addr
	origin := make(map[netip.Addr]ASN)

	var stop atomic.Bool
	var readers sync.WaitGroup
	for g := 0; g < 4; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			seen := 0
			for !stop.Load() {
				n := len(in.Allocations())
				if n < seen {
					t.Errorf("Allocations shrank from %d to %d", seen, n)
					return
				}
				seen = n
				mu.Lock()
				addrs := assigned
				mu.Unlock()
				for _, a := range addrs[max(0, len(addrs)-64):] {
					mu.Lock()
					want := origin[a]
					mu.Unlock()
					if got, ok := in.OriginAS(a); !ok || got != want {
						t.Errorf("OriginAS(%v) = %d, %v; NextAddr gave it to AS%d", a, got, ok, want)
						return
					}
				}
			}
		}()
	}
	var writers sync.WaitGroup
	for a := 0; a < ases; a++ {
		writers.Add(1)
		go func(asn ASN) {
			defer writers.Done()
			for i := 0; i < prefixesPerAS; i++ {
				if _, err := in.AllocatePrefix(asn); err != nil {
					t.Error(err)
					return
				}
				addr, err := in.NextAddr(asn)
				if err != nil {
					t.Error(err)
					return
				}
				mu.Lock()
				origin[addr] = asn
				assigned = append(assigned, addr)
				mu.Unlock()
			}
		}(ASN(64500 + a))
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if got := len(in.Allocations()); got != ases*prefixesPerAS {
		t.Fatalf("%d allocations, want %d", got, ases*prefixesPerAS)
	}
	for a, want := range origin {
		if got, ok := in.OriginAS(a); !ok || got != want {
			t.Errorf("OriginAS(%v) = %d, %v, want AS%d", a, got, ok, want)
		}
	}
}
