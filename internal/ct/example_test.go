package ct_test

import (
	"fmt"

	"whereru/internal/ct"
	"whereru/internal/pki"
)

// ExampleLog shows the auditor flow: append certificates, fetch the tree
// head, and verify an inclusion proof against it.
func ExampleLog() {
	log := ct.NewLog("example-log")
	ca := pki.NewCA(1, pki.LetsEncrypt, []string{"R3"}, 90)

	var leaf []byte
	for i := 0; i < 5; i++ {
		cert, _ := ca.Issue(19000, fmt.Sprintf("site%d.ru", i))
		idx, _ := log.Append(cert, 19000)
		if idx == 2 {
			leaf = cert.Marshal()
		}
	}
	head := log.Head()
	proof, _ := log.InclusionProof(2, head.Size)
	fmt.Println("inclusion verified:", ct.VerifyInclusion(leaf, 2, head.Size, proof, head.Root))
	// Output:
	// inclusion verified: true
}

// ExampleMonitor tails a log for Russian-domain certificates, as the
// paper's Censys-indexed pipeline does.
func ExampleMonitor() {
	log := ct.NewLog("example-log")
	ca := pki.NewCA(1, pki.LetsEncrypt, []string{"R3"}, 90)
	for _, name := range []string{"bank.ru", "shop.com", "пример.рф"} {
		cert, _ := ca.Issue(19000, name)
		log.Append(cert, 19000)
	}
	m := ct.NewMonitor(log, func(c *pki.Certificate) bool { return c.MatchesRussianTLD() })
	for _, e := range m.Poll() {
		fmt.Println(e.Cert.SubjectCN)
	}
	// Output:
	// bank.ru.
	// xn--e1afmkfd.xn--p1ai.
}
