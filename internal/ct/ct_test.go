package ct

import (
	"fmt"
	"sync"
	"testing"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// testCert builds the i-th deterministic logged certificate.
func testCert(i int) *pki.Certificate {
	return &pki.Certificate{
		Serial:    uint64(i + 1),
		Issuer:    &pki.Issuer{IssuerOrg: pki.LetsEncrypt, IssuerCN: "R3", RootOrg: pki.LetsEncrypt, Logged: true},
		SubjectCN: fmt.Sprintf("cert%04d.ru.", i),
		SANs:      []string{fmt.Sprintf("cert%04d.ru.", i)},
		NotBefore: 19000,
		NotAfter:  19090,
	}
}

func buildLog(t testing.TB, n int) *Log {
	t.Helper()
	l := NewLog("test")
	for i := 0; i < n; i++ {
		if _, err := l.Append(testCert(i), simtime.Day(19000+i)); err != nil {
			t.Fatal(err)
		}
	}
	return l
}

func TestAppendAndEntry(t *testing.T) {
	l := buildLog(t, 10)
	if l.Size() != 10 {
		t.Fatalf("Size = %d", l.Size())
	}
	got := l.Scan(7, 8, nil)
	if len(got) != 1 || got[0].Index != 7 || got[0].Cert.SubjectCN != "cert0007.ru." || got[0].Timestamp != 19007 {
		t.Fatalf("Scan(7, 8) = %+v", got)
	}
	// Not-logged certificates are rejected.
	c := testCert(99)
	c.Logged = false
	if _, err := l.Append(c, 0); err == nil {
		t.Fatal("unlogged certificate appended")
	}
	if l.Size() != 10 {
		t.Fatalf("Size after a refused Append = %d", l.Size())
	}
}

func TestScan(t *testing.T) {
	l := buildLog(t, 30)
	even := func(c *pki.Certificate) bool { return c.Serial%2 == 0 }
	got := l.Scan(0, 30, even)
	if len(got) != 15 {
		t.Fatalf("Scan matched %d, want 15", len(got))
	}
	// Out-of-range scan bounds are clamped.
	if got := l.Scan(-5, 999, nil); len(got) != 30 {
		t.Fatalf("clamped Scan = %d", len(got))
	}

	// One appender against every kind of reader at once (run under
	// -race): Size and Scan see a whole prefix of the log, and scans of
	// consecutive [from, Size()) ranges deliver each matching entry once,
	// in log order.
	const rounds, maxSize = 300, 1 << 16
	racing := buildLog(t, 64)
	done := make(chan struct{})
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 64; i < maxSize; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := racing.Append(testCert(i), simtime.Day(19000+i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	var tailed []Entry
	var from int64
	tail := func() {
		size := racing.Size()
		tailed = append(tailed, racing.Scan(from, size, even)...)
		from = size
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			tail()
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < rounds; i++ {
			n := racing.Size()
			if got := racing.Scan(0, n, nil); int64(len(got)) != n || got[n-1].Index != n-1 {
				t.Errorf("Scan(0, %d) returned %d entries", n, len(got))
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-appended
	tail()
	if n := racing.Size(); int64(len(tailed)) != n/2 {
		t.Fatalf("tailing scans delivered %d entries of a %d-entry log, want %d", len(tailed), n, n/2)
	}
	for j, e := range tailed {
		if e.Index != int64(2*j+1) || e.Cert.Serial != uint64(2*j+2) || e.Timestamp != simtime.Day(19000+2*j+1) {
			t.Fatalf("tailed entry %d = index %d serial %d day %d", j, e.Index, e.Cert.Serial, e.Timestamp)
		}
	}
}

func BenchmarkAppend(b *testing.B) {
	l := NewLog("bench")
	certs := make([]*pki.Certificate, 1024)
	for i := range certs {
		certs[i] = testCert(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(certs[i%1024], 0); err != nil {
			b.Fatal(err)
		}
	}
}
