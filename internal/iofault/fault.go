package iofault

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// Errors the fault layer injects. Each wraps ErrInjected so callers can
// distinguish injected failures from real ones, and ErrDiskFull also
// wraps syscall.ENOSPC so code written against the real errno keeps
// working.
var (
	// ErrInjected marks every error produced by the fault layer.
	ErrInjected = errors.New("iofault: injected fault")
	// ErrDiskFull is the injected ENOSPC: the write consumed whatever
	// budget remained (a short write, exactly as a full disk delivers
	// one) and then failed.
	ErrDiskFull = fmt.Errorf("iofault: disk full: %w (%w)", syscall.ENOSPC, ErrInjected)
	// ErrWriteFault is an injected whole-write failure (EIO-shaped: no
	// bytes reach the file).
	ErrWriteFault = fmt.Errorf("iofault: write error (%w)", ErrInjected)
	// ErrShortWrite is an injected short write: a seed-chosen prefix
	// reached the file, the rest did not.
	ErrShortWrite = fmt.Errorf("iofault: short write: %w (%w)", io.ErrShortWrite, ErrInjected)
	// ErrSyncFault is an injected fsync failure — the lying-fsync case:
	// the data may or may not be durable, and the caller must assume not.
	ErrSyncFault = fmt.Errorf("iofault: fsync error (%w)", ErrInjected)
	// ErrRenameFault is an injected rename failure: the target is
	// untouched, the source still exists.
	ErrRenameFault = fmt.Errorf("iofault: rename error (%w)", ErrInjected)
)

// Crash is the panic value delivered when a crash trigger fires: the
// simulated hard kill, thrown mid-write after exactly the configured
// prefix reached the file. Harnesses recover it; cmd/whereru installs a
// hook that exits the process instead.
type Crash struct {
	// Op names the operation that was executing ("write").
	Op string
	// TotalBytes is the fault filesystem's global written-byte count at
	// the instant of the crash — the byte offset the crash reproduces at.
	TotalBytes int64
}

func (c *Crash) Error() string {
	return fmt.Sprintf("iofault: crash injected during %s at byte %d", c.Op, c.TotalBytes)
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
	// the Crash hook fires (default: panic(*Crash)).
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
	// Crash overrides what happens when CrashAtByte fires. nil panics
	// with *Crash (recoverable by a harness); cmd/whereru exits the
	// process for subprocess-level chaos tests.
	Crash func(c *Crash)
}

// ParseProfile parses the comma-separated fault spec the CLI exposes
// (`whereru -io-fault`):
//
//	crash@N       crash mid-write once N total bytes are written
//	enospc@N      ENOSPC once N total bytes are written
//	syncfail@K    the K-th fsync fails
//	renamefail@K  the K-th rename fails
//	writeerr:P    each write fails whole with probability P
//	shortwrite:P  each write is torn short with probability P
//	shortread:P   each read returns a prefix with probability P
//	readflip:P    each read has one bit flipped with probability P
//
// Each class may appear once, and P must lie in [0, 1].
func ParseProfile(spec string) (Profile, error) {
	var p Profile
	seen := map[string]bool{}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		name, arg, at := tok, "", false
		if i := strings.IndexAny(tok, "@:"); i >= 0 {
			name, arg, at = tok[:i], tok[i+1:], tok[i] == '@'
		}
		if seen[name] {
			return p, fmt.Errorf("iofault: fault %q given twice", name)
		}
		seen[name] = true
		switch {
		case name == "crash" && at:
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("iofault: bad crash offset %q", arg)
			}
			p.CrashAtByte = n
		case name == "enospc" && at:
			n, err := strconv.ParseInt(arg, 10, 64)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("iofault: bad enospc offset %q", arg)
			}
			p.DiskFullAtByte = n
		case name == "syncfail" && at:
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("iofault: bad syncfail op %q", arg)
			}
			p.FailSyncOp = n
		case name == "renamefail" && at:
			n, err := strconv.Atoi(arg)
			if err != nil || n <= 0 {
				return p, fmt.Errorf("iofault: bad renamefail op %q", arg)
			}
			p.FailRenameOp = n
		case !at && (name == "writeerr" || name == "shortwrite" || name == "shortread" || name == "readflip"):
			v, err := strconv.ParseFloat(arg, 64)
			if err != nil || !(v >= 0 && v <= 1) { // NaN fails both
				return p, fmt.Errorf("iofault: bad probability %q for %s", arg, name)
			}
			switch name {
			case "writeerr":
				p.WriteErrProb = v
			case "shortwrite":
				p.ShortWriteProb = v
			case "shortread":
				p.ShortReadProb = v
			case "readflip":
				p.ReadBitFlipProb = v
			}
		default:
			return p, fmt.Errorf("iofault: unknown fault %q (want crash@N, enospc@N, syncfail@K, renamefail@K, writeerr:P, shortwrite:P, shortread:P, readflip:P)", tok)
		}
	}
	return p, nil
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
	inner FS
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
func NewFaultFS(inner FS, seed int64, p Profile) *FaultFS {
	if inner == nil {
		inner = OS
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

func (f *FaultFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
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
		return fmt.Errorf("iofault: rename %s -> %s: %w", oldpath, newpath, ErrRenameFault)
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
	inner File
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
	// caller is told afterwards; crash fires the hook after writing.
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
	hook := p.Crash
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
		c := &Crash{Op: "write", TotalBytes: at}
		if hook != nil {
			hook(c)
		}
		panic(c)
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
