package ct

import (
	"sync"
	"testing"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// The oracle: RFC 6962 §2.1 written out over leaves hashed up front, with
// no memo — what Log computed before it hashed leaves on demand.

func eagerLeaves(l *Log) []Hash {
	var out []Hash
	for _, e := range l.Scan(0, l.Size(), nil) {
		out = append(out, LeafHash(e.Cert.Marshal()))
	}
	return out
}

func eagerRoot(d []Hash) Hash {
	switch len(d) {
	case 0:
		return EmptyRoot()
	case 1:
		return d[0]
	}
	k := largestPow2Below(int64(len(d)))
	return NodeHash(eagerRoot(d[:k]), eagerRoot(d[k:]))
}

func eagerPath(m int64, d []Hash) []Hash {
	if len(d) <= 1 {
		return nil
	}
	k := largestPow2Below(int64(len(d)))
	if m < k {
		return append(eagerPath(m, d[:k]), eagerRoot(d[k:]))
	}
	return append(eagerPath(m-k, d[k:]), eagerRoot(d[:k]))
}

func eagerConsistency(m int64, d []Hash, complete bool) []Hash {
	n := int64(len(d))
	if m == n {
		if complete {
			return nil
		}
		return []Hash{eagerRoot(d)}
	}
	k := largestPow2Below(n)
	if m <= k {
		return append(eagerConsistency(m, d[:k], complete), eagerRoot(d[k:]))
	}
	return append(eagerConsistency(m-k, d[k:], false), eagerRoot(d[:k]))
}

func sameHashes(a, b []Hash) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestLazyLeavesMatchEagerOracle asks a 1,000-entry log for roots and
// proofs in an order that leaves hashing to every entry point in turn —
// a proof before any head, a small root after a large one, entries
// appended after a Head — and holds each answer to the oracle's.
func TestLazyLeavesMatchEagerOracle(t *testing.T) {
	sizes := []int64{0, 1, 2, 3, 64, 65, 1000}
	l := buildLog(t, 600)
	if len(l.hashes) != 0 {
		t.Fatalf("Append hashed %d leaves; none were asked for", len(l.hashes))
	}
	// Proofs first: nothing has been hashed when they are asked for.
	leaves := eagerLeaves(l)
	if got, err := l.InclusionProof(64, 65); err != nil || !sameHashes(got, eagerPath(64, leaves[:65])) {
		t.Fatalf("inclusion proof (64 in 65) on an unhashed log: %v", err)
	}
	if len(l.hashes) != 64 { // the audit path of leaf 64 is made of the other 64
		t.Fatalf("a proof for the last leaf of 65 hashed %d leaves", len(l.hashes))
	}
	if got, err := l.ConsistencyProof(3, 600); err != nil || !sameHashes(got, eagerConsistency(3, leaves, true)) {
		t.Fatalf("consistency proof 3 → 600: %v", err)
	}
	if h := l.Head(); h.Size != 600 || h.Root != eagerRoot(leaves) {
		t.Fatalf("head at 600 = %x, oracle %x", h.Root, eagerRoot(leaves))
	}
	// Entries appended after a Head are hashed by whoever covers them next.
	for i := 600; i < 1000; i++ {
		if _, err := l.Append(testCert(i), simtime.Day(19000+i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(l.hashes) != 600 {
		t.Fatalf("Append after Head hashed: %d leaves", len(l.hashes))
	}
	leaves = eagerLeaves(l)
	for _, n := range sizes {
		root, err := l.RootAt(n)
		if err != nil || root != eagerRoot(leaves[:n]) {
			t.Fatalf("RootAt(%d) = %x, %v; oracle %x", n, root, err, eagerRoot(leaves[:n]))
		}
		for _, idx := range []int64{0, 1, n / 2, n - 1} {
			if idx < 0 || idx >= n {
				continue
			}
			got, err := l.InclusionProof(idx, n)
			if err != nil || !sameHashes(got, eagerPath(idx, leaves[:n])) {
				t.Fatalf("InclusionProof(%d, %d) differs from the oracle (%v)", idx, n, err)
			}
			e, _ := l.Entry(idx)
			if !VerifyInclusion(e.Cert.Marshal(), idx, n, got, root) {
				t.Fatalf("InclusionProof(%d, %d) does not verify", idx, n)
			}
		}
		for _, m := range sizes {
			if m == 0 || m >= n {
				continue
			}
			got, err := l.ConsistencyProof(m, n)
			if err != nil || !sameHashes(got, eagerConsistency(m, leaves[:n], true)) {
				t.Fatalf("ConsistencyProof(%d, %d) differs from the oracle (%v)", m, n, err)
			}
		}
	}
	if h := l.Head(); h.Size != 1000 || h.Root != eagerRoot(leaves) || h.Timestamp != 19999 {
		t.Fatalf("head at 1000 = %+v", h)
	}
}

// TestHeadRacesAppendAndScan runs the three kinds of caller at once. A
// root writes leaf hashes and the memo, so Head must exclude Scan's
// readers, Append's writer and other Heads (run under -race). The
// appender keeps going for as long as heads are being asked for: every
// Head finds leaves nobody has hashed, and two Heads released together by
// one Append's unlock hash the same ones.
func TestHeadRacesAppendAndScan(t *testing.T) {
	const heads = 300
	l := buildLog(t, 64)
	done := make(chan struct{})
	appended := make(chan struct{})
	go func() {
		defer close(appended)
		for i := 64; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			if _, err := l.Append(testCert(i), simtime.Day(19000+i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	seen := make([][]TreeHead, 2)
	for g := range seen {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < heads; i++ {
				seen[g] = append(seen[g], l.Head())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < heads; i++ {
			n := l.Size()
			if got := l.Scan(0, n, func(c *pki.Certificate) bool { return c.Logged }); int64(len(got)) != n {
				t.Errorf("Scan(0, %d) returned %d entries", n, len(got))
				return
			}
		}
	}()
	wg.Wait()
	close(done)
	<-appended

	leaves := eagerLeaves(l)
	for _, hs := range seen {
		for i, h := range hs {
			if i > 0 && h.Size < hs[i-1].Size {
				t.Fatalf("head shrank: %d after %d", h.Size, hs[i-1].Size)
			}
			if i%50 == 0 && h.Root != eagerRoot(leaves[:h.Size]) {
				t.Fatalf("head at size %d differs from the oracle", h.Size)
			}
		}
	}
	if h := l.Head(); h.Root != eagerRoot(leaves) {
		t.Fatal("root after the race differs from the oracle")
	}
}
