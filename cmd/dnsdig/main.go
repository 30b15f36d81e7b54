// Command dnsdig is a dig-like client for the simulated Internet: it
// builds the world, sets the simulation clock to a date, and performs an
// iterative resolution for a name, printing the answer sections. With
// -serve it also exposes the simulated hierarchy on a real UDP socket and
// queries it over the network, demonstrating that the in-memory and UDP
// paths answer identically.
//
// Usage:
//
//	dnsdig [-date 2022-03-03] [-type NS|A] [-scale N] [-loss 0.1] [-retries 2] [-serve] name
//
// With -loss the resolution runs through the deterministic fault layer:
// every exchange is dropped with the given probability, retries and
// recoveries are reported, and the same -seed replays the same faults.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"

	"whereru/internal/dns"
	"whereru/internal/simtime"
	"whereru/internal/world"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dnsdig:", err)
		os.Exit(1)
	}
}

func run() error {
	date := flag.String("date", simtime.ConflictStart.String(), "simulation date (YYYY-MM-DD)")
	qtype := flag.String("type", "A", "query type (A, NS, SOA, ...)")
	scale := flag.Int("scale", 2000, "world scale divisor")
	seed := flag.Int64("seed", 20220224, "world seed (also seeds fault injection)")
	loss := flag.Float64("loss", 0, "injected packet-loss probability [0,1] on every server")
	retries := flag.Int("retries", 2, "query retransmissions after the first attempt")
	serve := flag.Bool("serve", false, "round-trip the query over a real UDP socket")
	trace := flag.Bool("trace", false, "print each delegation step (dig +trace style)")
	flag.Parse()
	if flag.NArg() != 1 {
		return fmt.Errorf("usage: dnsdig [flags] <name>")
	}
	name := dns.Canonical(flag.Arg(0))
	day, err := simtime.Parse(*date)
	if err != nil {
		return err
	}
	t, ok := dns.ParseType(*qtype)
	if !ok {
		return fmt.Errorf("unknown query type %q", *qtype)
	}

	fmt.Fprintf(os.Stderr, "building world (scale 1:%d)...\n", *scale)
	w, err := world.Build(world.Config{Seed: *seed, Scale: *scale, RFShare: 0.10})
	if err != nil {
		return err
	}
	w.Clock().Set(day)
	resolver := w.NewResolver()
	var faults *dns.FaultTransport
	if *loss > 0 {
		// Lossy mode: the same -seed reproduces the same drops, so a
		// flaky-looking resolution can be replayed exactly.
		resolver, faults = w.NewFaultyResolver(*seed, dns.FaultProfile{Loss: *loss})
	}
	resolver.Client.Retries = *retries
	if *trace {
		resolver.Trace = func(s dns.TraceStep) {
			outcome := fmt.Sprintf("%s, %d answers", s.RCode, s.Answers)
			if s.Referral != "" {
				outcome = "referral to " + s.Referral
			}
			fmt.Printf(";; @%s (zone %s): %s %s -> %s\n", s.Server, s.Zone, s.Question.Name, s.Question.Type, outcome)
		}
	}
	ctx := context.Background()

	res, err := resolver.Resolve(ctx, name, t)
	if err != nil {
		return err
	}
	fmt.Printf(";; %s %s @%s (iterative, in-memory wire)\n", name, t, day)
	fmt.Printf(";; status: %s, zone: %s\n", res.RCode, res.Zone)
	for _, c := range res.Chain {
		fmt.Printf(";; alias: %s\n", c)
	}
	for _, rr := range res.Answers {
		fmt.Println(rr)
	}
	if faults != nil {
		fs := faults.Stats()
		cs := resolver.Client.Stats()
		fmt.Printf(";; faults: %d exchanges, %d dropped; client: %d retries, %d recovered\n",
			fs.Exchanges, fs.Dropped, cs.Retries, cs.Recovered)
	}

	if *serve {
		// Put a recursive front door on a real UDP socket and ask again.
		srv := &dns.Server{Handler: dns.HandlerFunc(func(q *dns.Message, _ netip.Addr) *dns.Message {
			out := q.Reply()
			r, err := resolver.Resolve(context.Background(), q.Questions[0].Name, q.Questions[0].Type)
			if err != nil {
				out.RCode = dns.RCodeServFail
				return out
			}
			out.RCode = r.RCode
			out.Answers = r.Answers
			out.RecursionAvailable = true
			return out
		})}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			return err
		}
		defer srv.Close()
		addrPort := srv.Addr()
		fmt.Printf("\n;; re-querying over UDP @%s\n", addrPort)
		client := dns.NewClient(&dns.UDPTransport{Port: int(addrPort.Port())})
		resp, err := client.Query(ctx, addrPort.Addr(), name, t)
		if err != nil {
			return err
		}
		for _, rr := range resp.Answers {
			fmt.Println(rr)
		}
	}
	return nil
}
