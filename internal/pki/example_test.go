package pki_test

import (
	"fmt"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// ExampleCA shows issuance and OCSP-style revocation checking through the
// store.
func ExampleCA() {
	store := pki.NewStore()
	digicert := pki.NewCA(2, pki.DigiCert, []string{"RapidSSL"}, 365)

	day := simtime.Date(2022, 1, 10)
	cert, _ := digicert.Issue(day, "vtb.ru", "www.vtb.ru")
	store.Add(cert)

	fmt.Println("issuer:", cert.IssuerOrg)
	fmt.Println("russian:", cert.MatchesRussianTLD())
	fmt.Println("status:", store.CRL(cert.IssuerOrg).Status(cert.Serial, day.Add(10)))

	// DigiCert revokes the sanctioned bank's certificate (the event that
	// triggered the Russian Trusted Root CA's creation).
	store.Revoke(cert.Serial, simtime.Date(2022, 2, 25), pki.ReasonCessation)
	fmt.Println("status after revocation:", store.CRL(cert.IssuerOrg).Status(cert.Serial, simtime.Date(2022, 3, 1)))
	// Output:
	// issuer: DigiCert
	// russian: true
	// status: good
	// status after revocation: revoked
}

// ExampleStandardCatalog shows the paper's CA set, including the
// non-CT-logging Russian Trusted Root CA.
func ExampleStandardCatalog() {
	cas := pki.StandardCatalog()
	rtr := cas[pki.RussianTrustedRootCA]
	fmt.Println("CAs:", len(cas))
	fmt.Println("Russian CA logs to CT:", rtr.LogsToCT)
	fmt.Println("Russian CA browser-trusted:", rtr.BrowserTrusted)
	// Output:
	// CAs: 11
	// Russian CA logs to CT: false
	// Russian CA browser-trusted: false
}
