// Package ct implements an RFC 6962-style Certificate Transparency log:
// an append-only Merkle tree (SHA-256, 0x00/0x01 domain separation) over
// serialized certificates, tree heads, inclusion and consistency proofs
// with verifiers, and a monitor that tails the log for certificates
// matching a predicate — the reproduction's analog of Censys's CT index,
// which the paper uses to find every certificate securing a .ru or .рф
// name (§4.1).
package ct

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"sync"

	"whereru/internal/pki"
	"whereru/internal/simtime"
)

// Hash is a SHA-256 digest.
type Hash = [sha256.Size]byte

// LeafHash computes the RFC 6962 leaf hash: SHA-256(0x00 || leaf).
func LeafHash(leaf []byte) Hash {
	h := sha256.New()
	h.Write([]byte{0x00})
	h.Write(leaf)
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// NodeHash computes the RFC 6962 interior hash: SHA-256(0x01 || l || r).
func NodeHash(l, r Hash) Hash {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(l[:])
	h.Write(r[:])
	var out Hash
	copy(out[:], h.Sum(nil))
	return out
}

// EmptyRoot is the root of the empty tree: SHA-256 of the empty string.
func EmptyRoot() Hash { return sha256.Sum256(nil) }

// Entry is one log entry.
type Entry struct {
	Index     int64
	Timestamp simtime.Day
	Cert      *pki.Certificate
}

// TreeHead is a (conceptually signed) tree head.
type TreeHead struct {
	Size      int64
	Root      Hash
	Timestamp simtime.Day
}

// Log is an append-only CT log.
type Log struct {
	// Name identifies the log shard (e.g. "oak2022").
	Name string

	mu      sync.RWMutex
	entries []logged
	// hashes are the leaf hashes of entries[:len(hashes)]: a leaf is hashed
	// when a root or a proof first needs it (leaf), not by Append.
	hashes []Hash
	// memo caches roots of complete, aligned subtrees, which are
	// immutable once formed. Key packs (start, size): start*2^34 | size.
	memo map[int64]Hash
}

// logged is an Entry as the log keeps it: the index is the position.
type logged struct {
	day  simtime.Day
	cert *pki.Certificate
}

// NewLog creates an empty log.
func NewLog(name string) *Log {
	return &Log{Name: name, memo: make(map[int64]Hash)}
}

// Append adds a certificate to the log at the given timestamp and returns
// its index. Appending certificates from CAs that do not log is the
// caller's bug, so it is rejected loudly.
func (l *Log) Append(cert *pki.Certificate, day simtime.Day) (int64, error) {
	if !cert.Logged {
		return 0, fmt.Errorf("ct: certificate %d is marked not-logged", cert.Serial)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.entries = append(l.entries, logged{day: day, cert: cert})
	return int64(len(l.entries) - 1), nil
}

// Size returns the current number of entries.
func (l *Log) Size() int64 {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return int64(len(l.entries))
}

// Entry returns the entry at index i.
func (l *Log) Entry(i int64) (Entry, error) {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if i < 0 || i >= int64(len(l.entries)) {
		return Entry{}, fmt.Errorf("ct: index %d out of range [0,%d)", i, len(l.entries))
	}
	return Entry{Index: i, Timestamp: l.entries[i].day, Cert: l.entries[i].cert}, nil
}

// leaf returns the hash of leaf i, hashing first whatever up to it no root
// or proof has needed yet. Like the memo its callers fill, it writes: the
// caller holds the write lock.
func (l *Log) leaf(i int64) Hash {
	for n := int64(len(l.hashes)); n <= i; n++ {
		l.hashes = append(l.hashes, LeafHash(l.entries[n].cert.Marshal()))
	}
	return l.hashes[i]
}

// Head returns the tree head for the current size.
func (l *Log) Head() TreeHead {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := int64(len(l.entries))
	var ts simtime.Day
	if n > 0 {
		ts = l.entries[n-1].day
	}
	return TreeHead{Size: n, Root: l.rootLocked(0, n), Timestamp: ts}
}

// RootAt returns the root of the first n entries.
func (l *Log) RootAt(n int64) (Hash, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if n < 0 || n > int64(len(l.entries)) {
		return Hash{}, fmt.Errorf("ct: size %d out of range", n)
	}
	return l.rootLocked(0, n), nil
}

// largestPow2Below returns the largest power of two strictly less than n
// (n must be ≥ 2).
func largestPow2Below(n int64) int64 {
	k := int64(1)
	for k*2 < n {
		k *= 2
	}
	return k
}

// rootLocked computes MTH(D[start:start+size]).
func (l *Log) rootLocked(start, size int64) Hash {
	switch size {
	case 0:
		return EmptyRoot()
	case 1:
		return l.leaf(start)
	}
	aligned := size&(size-1) == 0 && start%size == 0
	var key int64
	if aligned {
		key = start<<34 | size
		if h, ok := l.memo[key]; ok {
			return h
		}
	}
	k := largestPow2Below(size)
	h := NodeHash(l.rootLocked(start, k), l.rootLocked(start+k, size-k))
	if aligned {
		l.memo[key] = h
	}
	return h
}

// Proof errors.
var (
	ErrBadRange = errors.New("ct: proof parameters out of range")
)

// InclusionProof returns the audit path for the leaf at index within the
// tree of the first treeSize entries (RFC 6962 §2.1.1 PATH).
func (l *Log) InclusionProof(index, treeSize int64) ([]Hash, error) {
	l.mu.Lock() // leaf hashing and memo writes require the write lock
	defer l.mu.Unlock()
	if index < 0 || treeSize > int64(len(l.entries)) || index >= treeSize {
		return nil, ErrBadRange
	}
	return l.pathLocked(index, 0, treeSize), nil
}

func (l *Log) pathLocked(m, start, size int64) []Hash {
	if size <= 1 {
		return nil
	}
	k := largestPow2Below(size)
	if m < k {
		return append(l.pathLocked(m, start, k), l.rootLocked(start+k, size-k))
	}
	return append(l.pathLocked(m-k, start+k, size-k), l.rootLocked(start, k))
}

// VerifyInclusion checks an audit path (RFC 9162 §2.1.3.2).
func VerifyInclusion(leaf []byte, index, treeSize int64, proof []Hash, root Hash) bool {
	if index < 0 || index >= treeSize {
		return false
	}
	fn, sn := index, treeSize-1
	r := LeafHash(leaf)
	for _, p := range proof {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			r = NodeHash(p, r)
			if fn&1 == 0 {
				for {
					fn >>= 1
					sn >>= 1
					if fn&1 == 1 || fn == 0 {
						break
					}
				}
			}
		} else {
			r = NodeHash(r, p)
		}
		fn >>= 1
		sn >>= 1
	}
	return sn == 0 && r == root
}

// ConsistencyProof returns the proof that the tree of size m is a prefix
// of the tree of size n (RFC 6962 §2.1.2 PROOF).
func (l *Log) ConsistencyProof(m, n int64) ([]Hash, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if m < 0 || n > int64(len(l.entries)) || m > n {
		return nil, ErrBadRange
	}
	if m == 0 || m == n {
		return nil, nil
	}
	return l.subProofLocked(m, 0, n, true), nil
}

func (l *Log) subProofLocked(m, start, n int64, complete bool) []Hash {
	if m == n {
		if complete {
			return nil
		}
		return []Hash{l.rootLocked(start, m)}
	}
	k := largestPow2Below(n)
	if m <= k {
		return append(l.subProofLocked(m, start, k, complete), l.rootLocked(start+k, n-k))
	}
	return append(l.subProofLocked(m-k, start+k, n-k, false), l.rootLocked(start, k))
}

// VerifyConsistency checks a consistency proof between tree sizes m ≤ n
// with roots rootM and rootN (RFC 9162 §2.1.4.2).
func VerifyConsistency(m, n int64, rootM, rootN Hash, proof []Hash) bool {
	switch {
	case m < 0 || m > n:
		return false
	case m == n:
		return len(proof) == 0 && rootM == rootN
	case m == 0:
		// The empty tree is consistent with anything; RFC 9162 requires
		// an empty proof in this case.
		return len(proof) == 0
	}
	// If m is a power of two, the first subtree root equals rootM and is
	// implicit; prepend it.
	path := proof
	if m&(m-1) == 0 {
		path = append([]Hash{rootM}, proof...)
	}
	if len(path) == 0 {
		return false
	}
	fn, sn := m-1, n-1
	for fn&1 == 1 {
		fn >>= 1
		sn >>= 1
	}
	fr, sr := path[0], path[0]
	for _, c := range path[1:] {
		if sn == 0 {
			return false
		}
		if fn&1 == 1 || fn == sn {
			fr = NodeHash(c, fr)
			sr = NodeHash(c, sr)
			if fn&1 == 0 {
				for {
					fn >>= 1
					sn >>= 1
					if fn&1 == 1 || fn == 0 {
						break
					}
				}
			}
		} else {
			sr = NodeHash(sr, c)
		}
		fn >>= 1
		sn >>= 1
	}
	return fr == rootM && sr == rootN && sn == 0
}

// Scan visits entries [from, to) that satisfy pred (nil = all), returning
// the matches. It is the bulk-read primitive monitors build on.
func (l *Log) Scan(from, to int64, pred func(*pki.Certificate) bool) []Entry {
	l.mu.RLock()
	defer l.mu.RUnlock()
	if from < 0 {
		from = 0
	}
	if to > int64(len(l.entries)) {
		to = int64(len(l.entries))
	}
	var out []Entry
	for i := from; i < to; i++ {
		if e := l.entries[i]; pred == nil || pred(e.cert) {
			out = append(out, Entry{Index: i, Timestamp: e.day, Cert: e.cert})
		}
	}
	return out
}

// Monitor tails a log, delivering new entries that match a predicate —
// how Censys incrementally indexes CT shards.
type Monitor struct {
	Log  *Log
	Pred func(*pki.Certificate) bool

	mu   sync.Mutex
	next int64
}

// NewMonitor creates a monitor from the beginning of the log.
func NewMonitor(log *Log, pred func(*pki.Certificate) bool) *Monitor {
	return &Monitor{Log: log, Pred: pred}
}

// Poll returns entries appended since the previous Poll that match.
func (m *Monitor) Poll() []Entry {
	m.mu.Lock()
	from := m.next
	size := m.Log.Size()
	m.next = size
	m.mu.Unlock()
	return m.Log.Scan(from, size, m.Pred)
}

// Position returns the monitor's next index.
func (m *Monitor) Position() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.next
}
