package dns

import (
	"context"
	"net/netip"
	"reflect"
	"slices"
	"testing"
)

// staticInternet is buildTestInternet's hierarchy with every record set
// built once, the way the simulated world's handlers serve them: what an
// exchange over it allocates is the wire path's own doing.
func staticInternet() (*MemNet, []netip.Addr) {
	net := NewMemNet()
	rootAddr := mustAddr("198.41.0.4")
	ruTLD := mustAddr("193.232.128.6")
	regRu := mustAddr("194.58.116.30")

	ruAuth := []RR{NewNS("ru.", 3600, "a.dns.ripn.net.")}
	ruGlue := []RR{NewA("a.dns.ripn.net.", 3600, ruTLD)}
	exAuth := []RR{NewNS("example.ru.", 3600, "ns1.reg.ru."), NewNS("example.ru.", 3600, "ns2.reg.ru.")}
	exGlue := []RR{NewA("ns1.reg.ru.", 3600, regRu), NewA("ns2.reg.ru.", 3600, regRu)}
	exA := []RR{NewA("example.ru.", 300, mustAddr("194.58.117.5")), NewA("example.ru.", 300, mustAddr("194.58.117.6"))}
	exNS := []RR{NewNS("example.ru.", 300, "ns1.reg.ru."), NewNS("example.ru.", 300, "ns2.reg.ru.")}

	net.Bind(rootAddr, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authority, resp.Additional = ruAuth, ruGlue
		return resp
	}))
	net.Bind(ruTLD, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authority, resp.Additional = exAuth, exGlue
		return resp
	}))
	net.Bind(regRu, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		switch q.Questions[0].Type {
		case TypeA:
			resp.Answers = exA
		case TypeNS:
			resp.Answers = exNS
		}
		return resp
	}))
	return net, []netip.Addr{rootAddr}
}

// TestExchangeSteadyStateAllocs pins the garbage-free exchange: once the
// names are interned and the arenas pooled, a MemNet round-trip whose
// response is released allocates nothing, for each message shape the
// sweep sees.
func TestExchangeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	net, _ := staticInternet()
	ctx := context.Background()
	for _, tc := range []struct {
		name   string
		server string
		qtype  Type
		shape  func(*Message) bool
	}{
		{"query-nodata", "194.58.116.30", TypeMX, func(m *Message) bool { return len(m.Answers)+len(m.Authority)+len(m.Additional) == 0 }},
		{"ns-referral", "193.232.128.6", TypeNS, func(m *Message) bool { return len(m.Authority) == 2 && len(m.Additional) == 2 }},
		{"a-answer", "194.58.116.30", TypeA, func(m *Message) bool { return len(m.Answers) == 2 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			q := NewQuery(7, "example.ru.", tc.qtype)
			server := mustAddr(tc.server)
			exchange := func() {
				resp, err := net.Exchange(ctx, server, q)
				if err != nil || !tc.shape(resp) {
					t.Fatalf("exchange: %v %v", resp, err)
				}
				resp.Release()
			}
			exchange() // intern the names, fill the pools
			if got := testing.AllocsPerRun(200, exchange); got != 0 {
				t.Errorf("steady-state Exchange allocates %.1f times per call, want 0", got)
			}
		})
	}
}

// TestWarmLookupAllocs pins the resolver above it: with the delegation
// cached, a lookup allocates the slice it returns and nothing else.
func TestWarmLookupAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items under the race detector")
	}
	net, roots := staticInternet()
	r := NewResolver(net, roots)
	ctx := context.Background()
	lookupNS := func() {
		if hosts, err := r.LookupNS(ctx, "example.ru."); err != nil || len(hosts) != 2 {
			t.Fatalf("LookupNS = %v, %v", hosts, err)
		}
	}
	lookupA := func() {
		if addrs, err := r.LookupA(ctx, "example.ru."); err != nil || len(addrs) != 2 {
			t.Fatalf("LookupA = %v, %v", addrs, err)
		}
	}
	lookupNS()
	lookupA()
	if got := testing.AllocsPerRun(200, lookupNS); got != 1 {
		t.Errorf("warm LookupNS allocates %.1f times, want 1 (the host slice)", got)
	}
	if got := testing.AllocsPerRun(200, lookupA); got != 1 {
		t.Errorf("warm LookupA allocates %.1f times, want 1 (the address slice)", got)
	}
}

// TestReleasePoisonsAliases shows the hook the ownership tests lean on:
// under TestMain's poison, whatever still points into a released message
// reads garbage, while values copied out beforehand are untouched.
func TestReleasePoisonsAliases(t *testing.T) {
	net, _ := staticInternet()
	resp, err := net.Exchange(context.Background(), mustAddr("194.58.116.30"), NewQuery(9, "example.ru.", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	alias := resp.Answers                        // section slice: arena storage
	copied := append([]RR(nil), resp.Answers...) // record values: safe
	want := NewA("example.ru.", 300, mustAddr("194.58.117.5"))
	resp.Release()
	if reflect.DeepEqual(alias[0], want) || alias[0].Type != poisonRR.Type {
		t.Errorf("alias survived release: %v", alias[0])
	}
	if resp.Answers != nil || resp.RCode == RCodeNoError {
		t.Errorf("released message still looks valid: %v", resp)
	}
	if !reflect.DeepEqual(copied[0], want) {
		t.Errorf("copied record changed: %v", copied[0])
	}
	resp.Release() // a second Release of the stale pointer is inert until the arena is reused
}

// TestRequestArenaReturnedAfterServe pins the Handler contract from the
// transport's side: the request and its Reply are arena storage that
// Exchange takes back, so a handler that kept either sees it scribbled.
func TestRequestArenaReturnedAfterServe(t *testing.T) {
	net := NewMemNet()
	addr := mustAddr("192.0.2.1")
	var keptReq, keptReply *Message
	var keptName string
	net.Bind(addr, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		keptReq, keptReply = q, q.Reply()
		keptName = q.Questions[0].Name // a copied-out name stays good
		if second := q.Reply(); second == keptReply {
			t.Error("a second Reply reused the arena slot of the first")
		}
		q.Release() // not the handler's to release: must be inert
		return keptReply
	}))
	resp, err := net.Exchange(context.Background(), addr, NewQuery(11, "kept.example.", TypeA))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID != 11 || len(resp.Questions) != 1 || resp.Questions[0].Name != "kept.example." {
		t.Fatalf("response damaged by the arena return: %v", resp)
	}
	if keptName != "kept.example." {
		t.Errorf("copied-out name changed: %q", keptName)
	}
	// The request's arena is scribbled and then free for reuse — here
	// most likely by the response decode of the very same exchange.
	if stillQuery := !keptReq.Response && keptReq.Questions != nil; stillQuery {
		t.Errorf("handler-retained request still looks like the query: %v", keptReq)
	}
	if keptReply.Questions != nil || keptReply.ID == 11 {
		t.Errorf("handler-retained reply still looks valid: %v", keptReply)
	}
}

// TestArenaReuseLeavesNoResidue decodes a large message and then a small
// one into the same arena: the second must equal a fresh decode in every
// section, including through the >maxArenaRRs and multi-question
// fallbacks.
func TestArenaReuseLeavesNoResidue(t *testing.T) {
	big := sampleMessage()
	for i := 0; i < maxArenaRRs+3; i++ {
		big.Additional = append(big.Additional, NewA("ns1.reg.ru.", 60, mustAddr("193.0.2.99")))
	}
	big.Questions = append(big.Questions, Question{Name: "second.example.", Type: TypeMX, Class: ClassIN})
	small := NewQuery(5, "tiny.example.", TypeNS)
	for _, pair := range [][2]*Message{{big, small}, {sampleMessage(), small}, {small, sampleMessage()}, {sampleMessage(), big}} {
		first, err := pair[0].Encode()
		if err != nil {
			t.Fatal(err)
		}
		second, err := pair[1].Encode()
		if err != nil {
			t.Fatal(err)
		}
		if msg := arenaReuseMismatch(first, second); msg != "" {
			t.Error(msg)
		}
	}
}

// assembled answers example.ru. A the way the simulated world's handlers
// do — records put together per query in room the reply lends — and
// leaves what it built in *stash, which no handler may do.
func assembled(stash *[]RR) Handler {
	payloads := []RData{AData{mustAddr("194.58.117.5")}, AData{mustAddr("194.58.117.6")}}
	return HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		resp.Authoritative = true
		resp.Answers = resp.Records(len(payloads))
		for _, d := range payloads {
			resp.Answers = append(resp.Answers, RR{Name: q.Questions[0].Name, Type: TypeA, Class: ClassIN, TTL: 300, Data: d})
		}
		*stash = resp.Answers
		return resp
	})
}

// TestBorrowedRecordsDieWithTheRequest pins where a reply's records
// live. Served by MemNet they are the request arena's: the exchange
// allocates nothing for them, and once the arena has been handed back
// and released a slice the handler kept reads the poison. Behind a
// server that decodes queries into storage of their own (dns.Server,
// Decode) the same handler gets a slice of its own, which stays good.
func TestBorrowedRecordsDieWithTheRequest(t *testing.T) {
	want := []RR{NewA("example.ru.", 300, mustAddr("194.58.117.5")), NewA("example.ru.", 300, mustAddr("194.58.117.6"))}
	var stash []RR
	net, addr := NewMemNet(), mustAddr("192.0.2.7")
	net.Bind(addr, assembled(&stash))
	q := NewQuery(3, "example.ru.", TypeA)
	exchange := func() {
		resp, err := net.Exchange(context.Background(), addr, q)
		if err != nil || !slices.Equal(resp.Answers, want) {
			t.Fatalf("exchange: %v, %v", resp, err)
		}
		resp.Release()
	}
	exchange()
	if len(stash) != 2 || stash[0].Name != poisonRR.Name || stash[1].Type != poisonRR.Type {
		t.Errorf("records kept past the exchange still read %v, want the poison", stash)
	}
	if !raceEnabled { // sync.Pool drops items under the race detector
		if got := testing.AllocsPerRun(200, exchange); got != 0 {
			t.Errorf("an exchange with an assembled answer allocates %.1f times, want 0", got)
		}
	}

	wire, err := q.Encode()
	if err != nil {
		t.Fatal(err)
	}
	owned, err := Decode(wire)
	if err != nil {
		t.Fatal(err)
	}
	var kept []RR
	resp := assembled(&kept).ServeDNS(owned, addr)
	exchange() // arenas come and go meanwhile
	if !slices.Equal(resp.Answers, want) || !slices.Equal(kept, want) {
		t.Errorf("a reply that owns itself lost its records: %v, kept %v", resp.Answers, kept)
	}
}

// TestRecordsRoomIsDisjoint pins Records' bookkeeping: the room starts
// past the request's own records (an EDNS query carries one), two calls
// never overlap, and a call larger than the slab gets a new one.
func TestRecordsRoomIsDisjoint(t *testing.T) {
	net, addr := NewMemNet(), mustAddr("192.0.2.8")
	glue := NewA("ns1.reg.ru.", 3600, mustAddr("194.58.116.30"))
	net.Bind(addr, HandlerFunc(func(q *Message, _ netip.Addr) *Message {
		resp := q.Reply()
		n := int(q.ID) // the test sizes the answer through the query ID
		for i := 0; i < n; i++ {
			resp.Answers = append(resp.Records(1), NewNS(q.Questions[0].Name, 60, "ns1.reg.ru."))
		}
		resp.Answers = resp.Records(n)
		for i := 0; i < n; i++ {
			resp.Answers = append(resp.Answers, NewNS(q.Questions[0].Name, 3600, "ns1.reg.ru."))
		}
		resp.Additional = append(resp.Records(1), glue)
		if q.EDNSSize() != DefaultEDNSSize || len(q.Additional) != 1 {
			t.Errorf("the reply's records overwrote the request's: %v", q.Additional)
		}
		return resp
	}))
	edns := &EDNSTransport{Transport: net}
	for _, n := range []int{2, maxArenaRRs + 5, 1} {
		resp, err := edns.Exchange(context.Background(), addr, NewQuery(uint16(n), "example.ru.", TypeNS))
		if err != nil {
			t.Fatal(err)
		}
		if len(resp.Answers) != n || len(resp.Additional) != 1 || resp.Additional[0] != glue {
			t.Fatalf("n=%d: got %d answers, additional %v", n, len(resp.Answers), resp.Additional)
		}
		for _, rr := range resp.Answers {
			if rr != NewNS("example.ru.", 3600, "ns1.reg.ru.") {
				t.Fatalf("n=%d: answer %v: sections share storage", n, rr)
			}
		}
		resp.Release()
	}
}
