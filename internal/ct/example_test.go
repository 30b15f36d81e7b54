package ct_test

import (
	"fmt"

	"whereru/internal/ct"
	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// ExampleLog appends certificates to a log and scans them back in log
// order, each with its index and log timestamp.
func ExampleLog() {
	log := ct.NewLog("example-log")
	ca := pki.NewCA(1, pki.LetsEncrypt, []string{"R3"}, 90)
	for i := 0; i < 3; i++ {
		cert, _ := ca.Issue(19000+simtime.Day(i), fmt.Sprintf("site%d.ru", i))
		log.Append(cert, 19000+simtime.Day(i))
	}
	for _, e := range log.Scan(0, log.Size(), nil) {
		fmt.Println(e.Index, e.Timestamp, e.Cert.SubjectCN)
	}
	// Output:
	// 0 2022-01-08 site0.ru.
	// 1 2022-01-09 site1.ru.
	// 2 2022-01-10 site2.ru.
}
