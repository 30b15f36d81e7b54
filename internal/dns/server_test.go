package dns

import (
	"context"
	"net/netip"
	"testing"
	"time"
)

// bigAnswerHandler returns n A records for any query — enough to exceed
// the 512-octet UDP limit when n is large.
func bigAnswerHandler(n int) Handler {
	return HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		for i := 0; i < n; i++ {
			resp.Answers = append(resp.Answers, NewA(q.Questions[0].Name, 60,
				netip.AddrFrom4([4]byte{10, 0, byte(i / 256), byte(i % 256)})))
		}
		return resp
	})
}

func TestUDPTruncationSetsTC(t *testing.T) {
	srv := &Server{Handler: bigAnswerHandler(60)} // ≈ 60×16 octets ≫ 512
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	udp := &UDPTransport{Port: int(addr.Port())}
	resp, err := udp.Exchange(context.Background(), addr.Addr(), NewQuery(7, "big.ru.", TypeA))
	if err != nil {
		t.Fatalf("UDP query: %v", err)
	}
	if !resp.Truncated {
		t.Fatal("oversized UDP response not truncated")
	}
	if len(resp.Answers) != 0 {
		t.Fatalf("truncated response carries %d answers", len(resp.Answers))
	}
}

// TestServerListenLifecycle pins the server's states: no address before
// Listen, Close of a never-listened server, one Listen per server (a
// second one used to replace the socket and leave the first serve loop
// running, so Close waited forever), and no Listen after Close.
func TestServerListenLifecycle(t *testing.T) {
	idle := &Server{Handler: bigAnswerHandler(1)}
	if idle.Addr().IsValid() {
		t.Fatal("Addr valid before Listen")
	}
	if err := idle.Close(); err != nil {
		t.Fatalf("Close of never-listened server: %v", err)
	}
	if err := idle.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}

	srv := &Server{Handler: bigAnswerHandler(1)}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	addr := srv.Addr()
	if err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Error("second Listen succeeded")
	}
	if got := srv.Addr(); got != addr {
		t.Errorf("Addr after refused Listen = %v, want %v", got, addr)
	}
	udp := &UDPTransport{Port: int(addr.Port())}
	if _, err := udp.Exchange(context.Background(), addr.Addr(), NewQuery(3, "one.ru.", TypeA)); err != nil {
		t.Errorf("query after refused Listen: %v", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatalf("Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close still blocked after 5 s")
	}
	if err := srv.Listen("127.0.0.1:0"); err == nil {
		t.Fatal("Listen after Close succeeded")
	}
}

// TestServerSurvivesOversizedEDNSReply asks with an OPT advertising 65,535
// octets for a reply of 65,512, more than one UDP datagram carries: the
// server caps the budget at the datagram and answers TC, and a later query
// is still answered (a failed send loses one reply; it must not end the
// serve loop).
func TestServerSurvivesOversizedEDNSReply(t *testing.T) {
	srv := &Server{Handler: bigAnswerHandler(4093)}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	udp := &UDPTransport{Port: int(addr.Port()), Timeout: time.Second}
	ctx := context.Background()
	q := NewQuery(9, "big.ru.", TypeA)
	q.SetEDNS(65535)
	if resp, err := udp.Exchange(ctx, addr.Addr(), q); err != nil {
		t.Errorf("EDNS query for a reply above one datagram: %v", err)
	} else if !resp.Truncated || len(resp.Answers) != 0 {
		t.Errorf("reply above one datagram: TC %v with %d answers, want TC and none", resp.Truncated, len(resp.Answers))
	}
	resp, err := udp.Exchange(ctx, addr.Addr(), NewQuery(10, "big.ru.", TypeA))
	if err != nil {
		t.Fatalf("query after the oversized reply: %v", err)
	}
	if resp.ID != 10 || !resp.Truncated {
		t.Fatalf("query after the oversized reply: ID %d, TC %v", resp.ID, resp.Truncated)
	}
}
