package dns

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// echoNet returns a MemNet with a single authoritative handler bound at
// addr answering every A question with answerAddr.
func echoNet(addr, answerAddr netip.Addr) *MemNet {
	net := NewMemNet()
	net.Bind(addr, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		resp.Answers = []RR{NewA(q.Questions[0].Name, 300, answerAddr)}
		return resp
	}))
	return net
}

func TestFaultTransportZeroProfilePassesThrough(t *testing.T) {
	server := mustAddr("11.0.0.1")
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 1, nil)
	// No profiles at all: transparent.
	resp, err := ft.Exchange(context.Background(), server, NewQuery(1, "a.ru.", TypeA))
	if err != nil || len(resp.Answers) != 1 {
		t.Fatalf("pass-through failed: %v %v", resp, err)
	}
	// An explicit zero-value profile is also transparent.
	ft.SetDefault(FaultProfile{})
	if _, err := ft.Exchange(context.Background(), server, NewQuery(2, "b.ru.", TypeA)); err != nil {
		t.Fatalf("zero profile injected a fault: %v", err)
	}
}

func TestFaultTransportLossRateAndDeterminism(t *testing.T) {
	server := mustAddr("11.0.0.1")
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 42, nil)
	ft.SetDefault(FaultProfile{Loss: 0.3})
	ctx := context.Background()

	outcome := func(tr *FaultTransport, i int) bool {
		q := NewQuery(uint16(i), fmt.Sprintf("d%04d.ru.", i), TypeA)
		_, err := tr.Exchange(ctx, server, q)
		if err != nil && !errors.Is(err, ErrInjected) {
			t.Fatalf("exchange %d: %v, want nil or an injected loss", i, err)
		}
		return err == nil
	}
	const n = 2000
	dropped := 0
	first := make([]bool, n)
	for i := 0; i < n; i++ {
		first[i] = outcome(ft, i)
		if !first[i] {
			dropped++
		}
	}
	if rate := float64(dropped) / n; rate < 0.25 || rate > 0.35 {
		t.Errorf("loss rate = %.3f, want ≈ 0.30", rate)
	}
	// Same seed: every exchange meets the same fate, in any order.
	ft2 := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 42, nil)
	ft2.SetDefault(FaultProfile{Loss: 0.3})
	for i := n - 1; i >= 0; i-- {
		if outcome(ft2, i) != first[i] {
			t.Fatalf("exchange %d fate differs under the same seed", i)
		}
	}
	// Different seed: a different drop pattern.
	ft3 := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 43, nil)
	ft3.SetDefault(FaultProfile{Loss: 0.3})
	same := 0
	for i := 0; i < n; i++ {
		if outcome(ft3, i) == first[i] {
			same++
		}
	}
	if same == n {
		t.Error("seed 43 reproduced seed 42's drop pattern exactly")
	}
}

func TestFaultTransportLossErrorIsNoRoute(t *testing.T) {
	server := mustAddr("11.0.0.1")
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 1, nil)
	ft.SetServer(server, FaultProfile{Loss: 1})
	_, err := ft.Exchange(context.Background(), server, NewQuery(1, "x.ru.", TypeA))
	if !errors.Is(err, ErrNoRoute) || !errors.Is(err, ErrInjected) {
		t.Fatalf("injected loss error = %v, want ErrNoRoute and ErrInjected", err)
	}
}

func TestFaultTransportOutageWindow(t *testing.T) {
	server := mustAddr("11.0.0.1")
	clock := netsim.NewClock(simtime.Date(2022, 3, 2))
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 1, clock)
	ft.SetServer(server, FaultProfile{Outages: []simtime.Window{
		{From: simtime.Date(2022, 3, 3), To: simtime.Date(2022, 3, 5)},
	}})
	ctx := context.Background()
	q := func() error {
		_, err := ft.Exchange(ctx, server, NewQuery(1, "x.ru.", TypeA))
		return err
	}
	if err := q(); err != nil {
		t.Fatalf("day before window: %v", err)
	}
	outaged := 0
	for d := simtime.Date(2022, 3, 3); d <= simtime.Date(2022, 3, 5); d++ {
		clock.Set(d)
		err := q()
		if !errors.Is(err, ErrNoRoute) {
			t.Fatalf("day %s inside window: err=%v, want ErrNoRoute", d, err)
		}
		if errors.Is(err, ErrInjected) {
			outaged++
		}
	}
	clock.Set(simtime.Date(2022, 3, 6))
	if err := q(); err != nil {
		t.Fatalf("day after window: %v — the outage did not lift itself", err)
	}
	if outaged != 3 {
		t.Errorf("outaged = %d, want 3", outaged)
	}
}

func TestSeededClientDeterministicIDs(t *testing.T) {
	server := mustAddr("11.0.0.1")
	var ids1, ids2 []uint16
	collect := func(out *[]uint16, seed int64) {
		net := echoNet(server, mustAddr("11.0.1.1"))
		net.SetTap(func(_ netip.Addr, q *Message) { *out = append(*out, q.ID) })
		c := NewSeededClient(net, seed)
		for _, name := range []string{"a.ru.", "b.ru.", "a.ru."} {
			if _, err := c.Query(context.Background(), server, name, TypeA); err != nil {
				t.Fatal(err)
			}
		}
	}
	collect(&ids1, 99)
	collect(&ids2, 99)
	if len(ids1) != 3 || len(ids2) != 3 {
		t.Fatalf("query counts: %d, %d", len(ids1), len(ids2))
	}
	for i := range ids1 {
		if ids1[i] != ids2[i] {
			t.Fatalf("IDs diverge at %d: %v vs %v", i, ids1, ids2)
		}
	}
	if ids1[0] != ids1[2] {
		t.Errorf("same (name, type, attempt) produced different IDs: %v", ids1)
	}
	var ids3 []uint16
	collect(&ids3, 100)
	if ids3[0] == ids1[0] && ids3[1] == ids1[1] {
		t.Error("different seeds produced identical IDs")
	}
}

func TestClientRetriesRecoverInjectedLoss(t *testing.T) {
	server := mustAddr("11.0.0.1")
	ft := NewFaultTransport(echoNet(server, mustAddr("11.0.1.1")), 5, nil)
	ft.SetDefault(FaultProfile{Loss: 0.5})
	c := NewSeededClient(ft, 5)
	c.Retries = 4
	ok, failed := 0, 0
	for i := 0; i < 500; i++ {
		if _, err := c.Query(context.Background(), server, fmt.Sprintf("d%03d.ru.", i), TypeA); err != nil {
			failed++
		} else {
			ok++
		}
	}
	// Per-query failure probability is 0.5^5 ≈ 3%; without retries it
	// would be 50%.
	if failed > 40 {
		t.Errorf("%d/%d queries failed despite retries", failed, ok+failed)
	}
	st := c.Stats()
	if st.Retries == 0 || st.Recovered == 0 {
		t.Errorf("client stats did not track recovery: %+v", st)
	}
	if st.Queries != 500 {
		t.Errorf("queries = %d, want 500", st.Queries)
	}
}
