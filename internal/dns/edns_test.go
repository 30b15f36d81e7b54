package dns

import (
	"context"
	"testing"
)

// SetEDNS attaches (or replaces) an OPT record advertising the given UDP
// payload size. Nothing in the module sends an OPT; tests attach one to
// drive the server's and the codec's EDNS paths.
func (m *Message) SetEDNS(udpSize uint16) {
	if udpSize < minEDNSSize {
		udpSize = minEDNSSize
	}
	for i := range m.Additional {
		if m.Additional[i].Type == TypeOPT {
			m.Additional[i].Class = Class(udpSize)
			return
		}
	}
	m.Additional = append(m.Additional, RR{
		Name:  ".",
		Type:  TypeOPT,
		Class: Class(udpSize), // RFC 6891 §6.1.2: class carries the size
		Data:  OPTData{},
	})
}

func TestSetAndReadEDNS(t *testing.T) {
	m := NewQuery(1, "example.ru.", TypeA)
	if m.EDNSSize() != 0 {
		t.Fatal("fresh query advertises EDNS")
	}
	m.SetEDNS(4096)
	if got := m.EDNSSize(); got != 4096 {
		t.Fatalf("EDNSSize = %d", got)
	}
	// Replacing, not duplicating.
	m.SetEDNS(1232)
	if got := m.EDNSSize(); got != 1232 {
		t.Fatalf("EDNSSize after update = %d", got)
	}
	optCount := 0
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			optCount++
		}
	}
	if optCount != 1 {
		t.Fatalf("OPT records = %d", optCount)
	}
	// Below-minimum sizes are clamped.
	m.SetEDNS(100)
	if got := m.EDNSSize(); got != 512 {
		t.Fatalf("clamped EDNSSize = %d", got)
	}
}

func TestEDNSWireRoundTrip(t *testing.T) {
	m := NewQuery(7, "example.ru.", TypeA)
	m.SetEDNS(1400)
	wire, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	if got := back.EDNSSize(); got != 1400 {
		t.Fatalf("EDNSSize after round trip = %d", got)
	}
	if TypeOPT.String() != "OPT" {
		t.Error("OPT mnemonic missing")
	}
}

func TestEDNSAvoidsTruncationOverUDP(t *testing.T) {
	srv := &Server{Handler: bigAnswerHandler(60)} // ≈1 KiB response
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	addr := srv.Addr()
	ctx := context.Background()

	// Plain UDP: truncated.
	plain := &UDPTransport{Port: int(addr.Port())}
	resp, err := plain.Exchange(ctx, addr.Addr(), NewQuery(1, "big.ru.", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Truncated {
		t.Fatal("plain UDP not truncated")
	}

	// EDNS0 with a 4096-octet advertisement: full answer over UDP.
	q := NewQuery(2, "big.ru.", TypeA)
	q.SetEDNS(4096)
	resp, err = plain.Exchange(ctx, addr.Addr(), q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Truncated {
		t.Fatal("EDNS0 response still truncated")
	}
	if len(resp.Answers) != 60 {
		t.Fatalf("answers = %d, want 60", len(resp.Answers))
	}
}
