package netsim_test

import (
	"fmt"

	"whereru/internal/netsim"
	"whereru/internal/simtime"
)

// ExampleInternet shows the address plan: register ASes, assign
// addresses, and answer origin-AS questions (the BGP-table analog the
// hosting analyses depend on).
func ExampleInternet() {
	in := netsim.NewInternet(simtime.Date(2022, 2, 24))
	in.MustRegisterAS(netsim.AS{Number: 13335, Org: "Cloudflare", Country: "US"})
	in.MustRegisterAS(netsim.AS{Number: 197695, Org: "REG.RU", Country: "RU"})

	cf, _ := in.NextAddr(13335)
	ru, _ := in.NextAddr(197695)

	asn, _ := in.OriginAS(cf)
	fmt.Printf("%v originates from AS%d\n", cf, asn)
	asn, _ = in.OriginAS(ru)
	fmt.Printf("%v originates from AS%d\n", ru, asn)
	// Output:
	// 11.0.0.1 originates from AS13335
	// 11.1.0.1 originates from AS197695
}
