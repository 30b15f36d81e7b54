package ct

import (
	"encoding/hex"
	"fmt"
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

func TestEmptyRootKnownValue(t *testing.T) {
	// RFC 6962: the empty tree hash is SHA-256 of the empty string.
	want := "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
	if got := hex.EncodeToString(func() []byte { h := EmptyRoot(); return h[:] }()); got != want {
		t.Fatalf("empty root = %s", got)
	}
	l := NewLog("empty")
	head := l.Head()
	if head.Size != 0 || hex.EncodeToString(head.Root[:]) != want {
		t.Fatalf("empty log head = %+v", head)
	}
}

func TestAppendAndEntry(t *testing.T) {
	l := buildLog(t, 10)
	if l.Size() != 10 {
		t.Fatalf("Size = %d", l.Size())
	}
	e, err := l.Entry(7)
	if err != nil || e.Cert.SubjectCN != "cert0007.ru." || e.Index != 7 {
		t.Fatalf("Entry(7) = %+v, %v", e, err)
	}
	if _, err := l.Entry(10); err == nil {
		t.Fatal("out-of-range Entry succeeded")
	}
	if _, err := l.Entry(-1); err == nil {
		t.Fatal("negative Entry succeeded")
	}
	// Not-logged certificates are rejected.
	c := testCert(99)
	c.Logged = false
	if _, err := l.Append(c, 0); err == nil {
		t.Fatal("unlogged certificate appended")
	}
}

func TestRootChangesOnAppend(t *testing.T) {
	l := NewLog("t")
	prev := l.Head().Root
	for i := 0; i < 20; i++ {
		if _, err := l.Append(testCert(i), 0); err != nil {
			t.Fatal(err)
		}
		cur := l.Head().Root
		if cur == prev {
			t.Fatalf("root unchanged after append %d", i)
		}
		prev = cur
	}
}

func TestInclusionProofsAllLeavesAllSizes(t *testing.T) {
	const maxN = 65 // crosses several power-of-two boundaries
	l := buildLog(t, maxN)
	for n := int64(1); n <= maxN; n++ {
		root, err := l.RootAt(n)
		if err != nil {
			t.Fatal(err)
		}
		for i := int64(0); i < n; i++ {
			proof, err := l.InclusionProof(i, n)
			if err != nil {
				t.Fatalf("InclusionProof(%d,%d): %v", i, n, err)
			}
			leaf := testCert(int(i)).Marshal()
			if !VerifyInclusion(leaf, i, n, proof, root) {
				t.Fatalf("inclusion proof failed for leaf %d in tree %d", i, n)
			}
			// Tampered leaf must fail.
			bad := append([]byte(nil), leaf...)
			bad[0] ^= 0xFF
			if VerifyInclusion(bad, i, n, proof, root) {
				t.Fatalf("tampered leaf verified for %d/%d", i, n)
			}
			// Wrong index must fail.
			if n > 1 && VerifyInclusion(leaf, (i+1)%n, n, proof, root) {
				t.Fatalf("wrong-index proof verified for %d/%d", i, n)
			}
		}
	}
}

func TestInclusionProofRangeErrors(t *testing.T) {
	l := buildLog(t, 5)
	for _, c := range []struct{ idx, size int64 }{{-1, 5}, {5, 5}, {0, 6}, {3, 2}} {
		if _, err := l.InclusionProof(c.idx, c.size); err == nil {
			t.Errorf("InclusionProof(%d,%d) succeeded", c.idx, c.size)
		}
	}
	if VerifyInclusion(nil, 0, 0, nil, EmptyRoot()) {
		t.Error("inclusion in empty tree verified")
	}
}

func TestConsistencyProofsAllPairs(t *testing.T) {
	const maxN = 40
	l := buildLog(t, maxN)
	roots := make([]Hash, maxN+1)
	for n := int64(0); n <= maxN; n++ {
		r, err := l.RootAt(n)
		if err != nil {
			t.Fatal(err)
		}
		roots[n] = r
	}
	for m := int64(0); m <= maxN; m++ {
		for n := m; n <= maxN; n++ {
			proof, err := l.ConsistencyProof(m, n)
			if err != nil {
				t.Fatalf("ConsistencyProof(%d,%d): %v", m, n, err)
			}
			if !VerifyConsistency(m, n, roots[m], roots[n], proof) {
				t.Fatalf("consistency proof failed for %d → %d", m, n)
			}
			// A wrong old root must fail (except the vacuous m==0 case,
			// where RFC 9162 does not bind the old root).
			if m > 0 {
				bad := roots[m]
				bad[3] ^= 0x40
				if VerifyConsistency(m, n, bad, roots[n], proof) {
					t.Fatalf("bad old root verified for %d → %d", m, n)
				}
			}
			if m > 0 && m < n {
				bad := roots[n]
				bad[7] ^= 0x01
				if VerifyConsistency(m, n, roots[m], bad, proof) {
					t.Fatalf("bad new root verified for %d → %d", m, n)
				}
			}
		}
	}
}

func TestConsistencyProofRangeErrors(t *testing.T) {
	l := buildLog(t, 5)
	if _, err := l.ConsistencyProof(4, 3); err == nil {
		t.Error("m>n accepted")
	}
	if _, err := l.ConsistencyProof(0, 9); err == nil {
		t.Error("n>size accepted")
	}
	if VerifyConsistency(3, 2, Hash{}, Hash{}, nil) {
		t.Error("m>n verified")
	}
}

func TestMemoMatchesNoMemo(t *testing.T) {
	a := buildLog(t, 131)
	leaves := eagerLeaves(a)
	for n := int64(0); n <= 131; n += 13 {
		ra, _ := a.RootAt(n)
		if ra != eagerRoot(leaves[:n]) {
			t.Fatalf("memoized root differs at size %d", n)
		}
	}
}

func TestScanAndMonitor(t *testing.T) {
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

	m := NewMonitor(l, even)
	if first := m.Poll(); len(first) != 15 {
		t.Fatalf("first Poll = %d", len(first))
	}
	if again := m.Poll(); len(again) != 0 {
		t.Fatalf("second Poll = %d, want 0", len(again))
	}
	if _, err := l.Append(testCert(100), 0); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testCert(101), 0); err != nil {
		t.Fatal(err)
	}
	inc := m.Poll()
	if len(inc) != 1 || inc[0].Cert.Serial != 102 {
		t.Fatalf("incremental Poll = %+v", inc)
	}
	if m.Position() != 32 {
		t.Fatalf("Position = %d", m.Position())
	}
}

func TestHeadTimestamp(t *testing.T) {
	l := NewLog("t")
	if _, err := l.Append(testCert(0), simtime.MustParse("2022-01-05")); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(testCert(1), simtime.MustParse("2022-02-06")); err != nil {
		t.Fatal(err)
	}
	head := l.Head()
	if head.Size != 2 || head.Timestamp != simtime.MustParse("2022-02-06") {
		t.Fatalf("Head = %+v", head)
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

func BenchmarkRootMemoized(b *testing.B) {
	l := buildLog(b, 4096)
	if _, err := l.RootAt(4096); err != nil { // warm the memo
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.RootAt(4096); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInclusionProof(b *testing.B) {
	l := buildLog(b, 4096)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := l.InclusionProof(int64(i)%4096, 4096); err != nil {
			b.Fatal(err)
		}
	}
}
