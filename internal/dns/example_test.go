package dns_test

import (
	"context"
	"fmt"
	"net/netip"

	"whereru/internal/dns"
)

// ExampleResolver wires a miniature root → TLD → authoritative hierarchy
// into the in-memory transport and resolves a name iteratively.
func ExampleResolver() {
	net := dns.NewMemNet()
	root := netip.MustParseAddr("198.41.0.4")
	tld := netip.MustParseAddr("193.232.128.6")
	auth := netip.MustParseAddr("194.58.116.30")

	net.Bind(root, dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
		resp := q.Reply()
		resp.Authority = []dns.RR{dns.NewNS("ru.", 3600, "a.tld.ru.")}
		resp.Additional = []dns.RR{dns.NewA("a.tld.ru.", 3600, tld)}
		return resp
	}))
	net.Bind(tld, dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
		resp := q.Reply()
		resp.Authority = []dns.RR{dns.NewNS("example.ru.", 3600, "ns1.example.ru.")}
		resp.Additional = []dns.RR{dns.NewA("ns1.example.ru.", 3600, auth)}
		return resp
	}))
	net.Bind(auth, dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
		resp := q.Reply()
		resp.Authoritative = true
		resp.Answers = []dns.RR{dns.NewA(q.Questions[0].Name, 300, netip.MustParseAddr("194.58.117.5"))}
		return resp
	}))

	r := dns.NewResolver(net, []netip.Addr{root})
	addrs, err := r.LookupA(context.Background(), "example.ru.", nil, nil)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(addrs[0])
	// Output: 194.58.117.5
}

// ExampleMessage_Encode shows the wire codec round trip.
func ExampleMessage_Encode() {
	m := dns.NewQuery(42, "example.ru.", dns.TypeNS)
	wire, _ := m.Encode()
	back, _ := dns.Decode(wire)
	fmt.Println(back.Questions[0])
	// Output: example.ru. IN NS
}

func ExampleCanonical() {
	fmt.Println(dns.Canonical("ExAmPlE.RU"))
	fmt.Println(dns.TLD("ns1.provider.com."))
	fmt.Println(dns.Parent("a.b.ru."))
	// Output:
	// example.ru.
	// com
	// b.ru.
}
