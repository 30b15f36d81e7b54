// Package chaostest is the disk-fault layer and the chaos matrix. Its
// FaultFS wraps an iofault.FS and subjects every write, fsync, rename
// and read to deterministic, seed-driven failures; the tests then cross
// every durability-critical component (store write, journal append,
// end-to-end checkpointed collection, fsck repair) with every fault
// class (crash at a byte offset sampled across the component's full
// write volume, ENOSPC, fsync failure, torn rename) and prove the
// recovery story: fsck and resume reproduce the uninterrupted run's
// store, report and journal bytes exactly. store's and rustore's tests
// use FaultFS too. The package imports only iofault, and no binary
// imports it.
//
// Every injected failure is replayable, as dns.FaultTransport's are:
// fault decisions are pure FNV-1a hashes of (seed, op-index), never
// draws from a sequential RNG, so a failing cell reproduces from its
// logged (seed, offset) alone. The whole matrix is one
// `go test ./internal/iofault/chaostest` away; CI runs it as the
// chaos-smoke job.
package chaostest

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"sync"
	"syscall"

	"whereru/internal/iofault"
)

// Errors the fault layer injects. Each wraps ErrInjected so callers can
// distinguish injected failures from real ones, and ErrDiskFull also
// wraps syscall.ENOSPC so code written against the real errno keeps
// working.
var (
	// ErrInjected marks every error produced by the fault layer.
	ErrInjected = errors.New("chaostest: injected fault")
	// ErrDiskFull is the injected ENOSPC: the write consumed whatever
	// budget remained (a short write, exactly as a full disk delivers
	// one) and then failed.
	ErrDiskFull = fmt.Errorf("chaostest: disk full: %w (%w)", syscall.ENOSPC, ErrInjected)
	// ErrWriteFault is an injected whole-write failure (EIO-shaped: no
	// bytes reach the file).
	ErrWriteFault = fmt.Errorf("chaostest: write error (%w)", ErrInjected)
	// ErrShortWrite is an injected short write: a seed-chosen prefix
	// reached the file, the rest did not.
	ErrShortWrite = fmt.Errorf("chaostest: short write: %w (%w)", io.ErrShortWrite, ErrInjected)
	// ErrSyncFault is an injected fsync failure — the lying-fsync case:
	// the data may or may not be durable, and the caller must assume not.
	ErrSyncFault = fmt.Errorf("chaostest: fsync error (%w)", ErrInjected)
	// ErrRenameFault is an injected rename failure: the target is
	// untouched, the source still exists.
	ErrRenameFault = fmt.Errorf("chaostest: rename error (%w)", ErrInjected)
)

// Crash is the panic value delivered when a crash trigger fires: the
// simulated hard kill, thrown mid-write after exactly the configured
// prefix reached the file. Harnesses recover it.
type Crash struct {
	// Op names the operation that was executing ("write").
	Op string
	// TotalBytes is the fault filesystem's global written-byte count at
	// the instant of the crash — the byte offset the crash reproduces at.
	TotalBytes int64
}

func (c *Crash) Error() string {
	return fmt.Sprintf("chaostest: crash injected during %s at byte %d", c.Op, c.TotalBytes)
}

// Profile configures a FaultFS. The zero value injects nothing.
//
// Deterministic triggers fire exactly once at a configured point:
// CrashAtByte and DiskFullAtByte count bytes written through the whole
// filesystem (all files combined — the disk is shared), FailSyncOp and
// FailRenameOp count operations. Probabilistic faults roll a pure hash
// of (seed, op-index) per operation, so with a fixed seed the same
// op-index misbehaves in every run regardless of what the bytes are.
type Profile struct {
	// CrashAtByte > 0 simulates a hard kill mid-write: once the
	// filesystem's cumulative written-byte count reaches it, the write
	// in flight stores exactly the prefix that fits below the limit and
	// the write panics with *Crash.
	CrashAtByte int64
	// DiskFullAtByte > 0 simulates ENOSPC: writes consume bytes up to
	// the limit, then fail with ErrDiskFull (short write first, like a
	// real full disk).
	DiskFullAtByte int64
	// FailSyncOp > 0 fails the n-th Sync or SyncDir (1-based, counted
	// across the filesystem) with ErrSyncFault.
	FailSyncOp int
	// FailRenameOp > 0 fails the n-th Rename (1-based) with
	// ErrRenameFault, leaving source and target untouched — the torn
	// rename.
	FailRenameOp int
	// WriteErrProb is the probability a write fails whole (no bytes
	// written, ErrWriteFault).
	WriteErrProb float64
	// ShortWriteProb is the probability a write stores only a
	// seed-chosen strict prefix and returns ErrShortWrite.
	ShortWriteProb float64
	// ShortReadProb is the probability a read returns a seed-chosen
	// strict prefix of what the file delivered (legal for io.Reader;
	// exercises ReadFull/bufio reassembly in callers).
	ShortReadProb float64
	// ReadBitFlipProb is the probability a read's returned buffer has
	// one seed-chosen bit flipped — bit rot on the read path; the file
	// itself is unharmed.
	ReadBitFlipProb float64
}

// Stats counts what a FaultFS saw and did.
type Stats struct {
	// Ops is the number of fault-decision points passed (every read,
	// write, sync and rename increments it).
	Ops uint64
	// BytesWritten is the cumulative written-byte count — the axis
	// CrashAtByte and DiskFullAtByte are sampled on.
	BytesWritten int64
	// Injected counts operations that misbehaved.
	Injected int64
	// Crashed reports whether the crash trigger fired.
	Crashed bool
}

// FaultFS wraps an FS so every file it opens injects the profile's
// faults. One FaultFS models one disk: byte and op counters are global
// across its files, exactly as ENOSPC and power loss are.
//
// The durability paths this wraps are sequential (journal appends, one
// atomic store write at a time), so op order — and with it each
// operation's fate — is deterministic for a fixed seed. Concurrent use
// is safe but op-indices then depend on scheduling, like any shared
// disk.
type FaultFS struct {
	inner iofault.FS
	seed  uint64

	mu      sync.Mutex
	profile Profile
	ops     uint64
	bytes   int64
	syncs   int
	renames int
	stats   Stats
}

// NewFaultFS wraps inner with a deterministic fault profile.
func NewFaultFS(inner iofault.FS, seed int64, p Profile) *FaultFS {
	if inner == nil {
		inner = iofault.OS
	}
	return &FaultFS{inner: inner, seed: uint64(seed), profile: p}
}

// Stats snapshots the counters.
func (f *FaultFS) Stats() Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	st := f.stats
	st.Ops = f.ops
	st.BytesWritten = f.bytes
	return st
}

// Hash salts separating the independent fault decisions of one op.
const (
	saltWriteErr  = 0x9E3779B97F4A7C15
	saltShortW    = 0xC2B2AE3D27D4EB4F
	saltShortLen  = 0x165667B19E3779F9
	saltShortRead = 0x27D4EB2F165667C5
	saltReadFlip  = 0x85EBCA77C2B2AE63
	saltFlipPos   = 0x2545F4914F6CDD1D
)

// roll derives a uniform float64 in [0,1) from (seed, op-index, salt) —
// the same FNV-1a construction dns.FaultTransport uses, so a failure
// observed once is replayable from the pair forever.
func roll(seed, op, salt uint64) float64 {
	return float64(hash64(seed, op, salt)>>11) / float64(1<<53)
}

func hash64(seed, op, salt uint64) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range [3]uint64{salt, seed, op} {
		for i := 0; i < 8; i++ {
			h ^= v & 0xFF
			h *= prime64
			v >>= 8
		}
	}
	return h
}

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	inner, err := f.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	f.mu.Lock()
	f.ops++
	f.renames++
	fail := f.profile.FailRenameOp > 0 && f.renames == f.profile.FailRenameOp
	if fail {
		f.stats.Injected++
	}
	f.mu.Unlock()
	if fail {
		return fmt.Errorf("chaostest: rename %s -> %s: %w", oldpath, newpath, ErrRenameFault)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(name string) error { return f.inner.Remove(name) }

func (f *FaultFS) SyncDir(dir string) error {
	if err := f.syncFault(); err != nil {
		return err
	}
	return f.inner.SyncDir(dir)
}

// syncFault is the shared Sync/SyncDir decision: both are fsync(2).
func (f *FaultFS) syncFault() error {
	f.mu.Lock()
	f.ops++
	f.syncs++
	fail := f.profile.FailSyncOp > 0 && f.syncs == f.profile.FailSyncOp
	if fail {
		f.stats.Injected++
	}
	f.mu.Unlock()
	if fail {
		return ErrSyncFault
	}
	return nil
}

// faultFile injects the filesystem's profile into one file's I/O.
type faultFile struct {
	fs    *FaultFS
	inner iofault.File
}

func (ff *faultFile) Write(b []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	op := f.ops
	f.ops++
	p := f.profile
	total := f.bytes

	if p.WriteErrProb > 0 && roll(f.seed, op, saltWriteErr) < p.WriteErrProb {
		f.stats.Injected++
		f.mu.Unlock()
		return 0, ErrWriteFault
	}

	// allowed is how much of b reaches the file; errAfter is what the
	// caller is told afterwards; crash panics after writing.
	allowed, errAfter, crash := len(b), error(nil), false
	if p.ShortWriteProb > 0 && len(b) > 1 && roll(f.seed, op, saltShortW) < p.ShortWriteProb {
		// A strict prefix: at least 0, at most len(b)-1 bytes.
		allowed = int(hash64(f.seed, op, saltShortLen) % uint64(len(b)))
		errAfter = ErrShortWrite
	}
	if p.DiskFullAtByte > 0 && total+int64(allowed) > p.DiskFullAtByte {
		if rem := p.DiskFullAtByte - total; int64(allowed) > rem {
			if rem < 0 {
				rem = 0
			}
			allowed = int(rem)
		}
		errAfter = ErrDiskFull
	}
	if p.CrashAtByte > 0 && !f.stats.Crashed && total+int64(allowed) >= p.CrashAtByte {
		allowed = int(p.CrashAtByte - total)
		if allowed < 0 {
			allowed = 0
		}
		f.stats.Crashed = true
		crash = true
	}
	if errAfter != nil || crash {
		f.stats.Injected++
	}
	f.mu.Unlock()

	n := 0
	var err error
	if allowed > 0 {
		n, err = ff.inner.Write(b[:allowed])
	}
	f.mu.Lock()
	f.bytes += int64(n)
	at := f.bytes
	f.mu.Unlock()
	if crash {
		// Make the torn prefix visible to the "rebooted" observer the
		// way a kernel would have: whatever Write returned is in the
		// page cache already; the harness reopens the file and sees it.
		panic(&Crash{Op: "write", TotalBytes: at})
	}
	if err != nil {
		return n, err
	}
	if errAfter != nil {
		return n, errAfter
	}
	return n, nil
}

func (ff *faultFile) Read(b []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	op := f.ops
	f.ops++
	p := f.profile
	short := p.ShortReadProb > 0 && len(b) > 1 && roll(f.seed, op, saltShortRead) < p.ShortReadProb
	flip := p.ReadBitFlipProb > 0 && roll(f.seed, op, saltReadFlip) < p.ReadBitFlipProb
	if short || flip {
		f.stats.Injected++
	}
	f.mu.Unlock()

	if short {
		// Ask the file for a strict prefix (≥1 byte so EOF semantics are
		// untouched); callers using io.ReadFull/bufio must reassemble.
		b = b[:1+int(hash64(f.seed, op, saltShortLen)%uint64(len(b)-1))]
	}
	n, err := ff.inner.Read(b)
	if flip && n > 0 {
		h := hash64(f.seed, op, saltFlipPos)
		b[int(h%uint64(n))] ^= 1 << (h >> 56 % 8)
	}
	return n, err
}

func (ff *faultFile) Sync() error {
	if err := ff.fs.syncFault(); err != nil {
		return err
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Seek(offset int64, whence int) (int64, error) {
	return ff.inner.Seek(offset, whence)
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

func (ff *faultFile) Truncate(size int64) error { return ff.inner.Truncate(size) }

func (ff *faultFile) Stat() (fs.FileInfo, error) { return ff.inner.Stat() }

func (ff *faultFile) Name() string { return ff.inner.Name() }
