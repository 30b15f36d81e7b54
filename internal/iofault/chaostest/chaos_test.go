package chaostest

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"testing"

	"whereru/internal/core"
	"whereru/internal/iofault"
	"whereru/internal/simtime"
	"whereru/internal/store"
	"whereru/internal/world"
)

// crashSamples is how many byte offsets each component's crash class
// samples across its write volume (the acceptance floor is 32).
const crashSamples = 32

// sampleOffsets returns n distinct 1-based byte offsets in [1, total],
// hash-spread and always including both edges. When total <= n every
// offset is taken.
func sampleOffsets(total int64, n int, salt uint64) []int64 {
	if total <= int64(n) {
		out := make([]int64, 0, total)
		for i := int64(1); i <= total; i++ {
			out = append(out, i)
		}
		return out
	}
	seen := map[int64]bool{1: true, total: true}
	out := []int64{1, total}
	for i := 0; len(out) < n; i++ {
		h := fnv.New64a()
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], salt)
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		h.Write(b[:])
		off := 1 + int64(h.Sum64()%uint64(total))
		if !seen[off] {
			seen[off] = true
			out = append(out, off)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// expectCrash runs fn and asserts it dies of an injected *Crash
// at exactly the wanted byte offset.
func expectCrash(t *testing.T, wantAt int64, fn func()) {
	t.Helper()
	defer func() {
		c, ok := recover().(*Crash)
		if !ok {
			t.Fatalf("crash@%d: no injected crash fired", wantAt)
		}
		if c.TotalBytes != wantAt {
			t.Fatalf("crash@%d: crashed at byte %d", wantAt, c.TotalBytes)
		}
	}()
	fn()
	t.Fatalf("crash@%d: returned without crashing", wantAt)
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ---------------------------------------------------------------------------
// Component: store write (WriteAtomic of a measurement store)

// chaosStore builds a small deterministic store; sweeps controls how
// much history it holds so "previous" and "new" stores differ.
func chaosStore(sweeps int) *store.Store {
	s := store.New()
	for i := 0; i < sweeps; i++ {
		day := simtime.Day(800 + i*7)
		s.BeginSweep(day)
		for j := 0; j < 10; j++ {
			s.Add(store.Measurement{
				Domain: fmt.Sprintf("dom%02d.ru.", j),
				Day:    day,
				Config: store.Config{
					NSHosts: []string{fmt.Sprintf("ns%d.prov%d.ru.", j%2, (j+i/3)%3)},
				},
			})
		}
	}
	return s
}

func writeStoreAtomic(fsys iofault.FS, path string, s *store.Store) error {
	return iofault.WriteAtomic(fsys, path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// TestChaosStoreWrite crosses the atomic store write with every fault
// class. The guarantee under test: the previous good store survives any
// failure, and a retry on a healed disk produces the uninterrupted
// run's bytes exactly.
func TestChaosStoreWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.wrst")
	prevStore, newStore := chaosStore(3), chaosStore(6)

	if err := writeStoreAtomic(iofault.OS, path, prevStore); err != nil {
		t.Fatal(err)
	}
	prev := mustRead(t, path)
	if err := writeStoreAtomic(iofault.OS, path, newStore); err != nil {
		t.Fatal(err)
	}
	ref := mustRead(t, path)
	if bytes.Equal(prev, ref) {
		t.Fatal("previous and new stores are identical; the test proves nothing")
	}
	total := int64(len(ref))

	// After any fault: prev intact, clean retry == ref, and no temp
	// litter once the retry lands. Error returns clean up their own temp
	// file; a crash cannot (the process is gone), so only the
	// error-shaped classes assert immediate cleanup via crashed=false.
	checkRecovery := func(t *testing.T, label string, crashed bool) {
		t.Helper()
		if got := mustRead(t, path); !bytes.Equal(got, prev) {
			t.Fatalf("%s: previous store damaged", label)
		}
		if !crashed {
			if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("%s: temp file left behind", label)
			}
		}
		if err := writeStoreAtomic(iofault.OS, path, newStore); err != nil {
			t.Fatalf("%s: retry: %v", label, err)
		}
		if got := mustRead(t, path); !bytes.Equal(got, ref) {
			t.Fatalf("%s: retried write differs from uninterrupted run", label)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s: temp file survived the retry", label)
		}
	}
	reset := func() {
		if err := writeStoreAtomic(iofault.OS, path, prevStore); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("crash", func(t *testing.T) {
		for _, off := range sampleOffsets(total, crashSamples, 0x5701) {
			reset()
			ffs := NewFaultFS(iofault.OS, 100+off, Profile{CrashAtByte: off})
			expectCrash(t, off, func() { writeStoreAtomic(ffs, path, newStore) })
			checkRecovery(t, fmt.Sprintf("crash@%d", off), true)
		}
	})
	t.Run("enospc", func(t *testing.T) {
		// total-1: a disk that fills at exactly total bytes fits the
		// whole write and injects nothing.
		for _, off := range sampleOffsets(total-1, 8, 0x5702) {
			reset()
			ffs := NewFaultFS(iofault.OS, 200+off, Profile{DiskFullAtByte: off})
			err := writeStoreAtomic(ffs, path, newStore)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("enospc@%d: err = %v", off, err)
			}
			checkRecovery(t, fmt.Sprintf("enospc@%d", off), false)
		}
	})
	t.Run("syncfail", func(t *testing.T) {
		for _, op := range []int{1, 2} { // file fsync, then directory fsync
			reset()
			ffs := NewFaultFS(iofault.OS, 300+int64(op), Profile{FailSyncOp: op})
			err := writeStoreAtomic(ffs, path, newStore)
			if op == 1 {
				// The file fsync fails before the rename: full rollback.
				if !errors.Is(err, ErrSyncFault) {
					t.Fatalf("syncfail@%d: err = %v", op, err)
				}
				checkRecovery(t, fmt.Sprintf("syncfail@%d", op), false)
				continue
			}
			// The directory fsync fails after the rename: the new bytes are
			// already visible (and complete); only their crash-durability is
			// unproven. The caller sees the error and retries.
			if !errors.Is(err, ErrSyncFault) {
				t.Fatalf("syncfail@%d: err = %v", op, err)
			}
			if got := mustRead(t, path); !bytes.Equal(got, ref) && !bytes.Equal(got, prev) {
				t.Fatalf("syncfail@%d: path holds neither old nor new store", op)
			}
			if err := writeStoreAtomic(iofault.OS, path, newStore); err != nil {
				t.Fatalf("syncfail@%d retry: %v", op, err)
			}
			if got := mustRead(t, path); !bytes.Equal(got, ref) {
				t.Fatalf("syncfail@%d: retry differs", op)
			}
		}
	})
	t.Run("torn-rename", func(t *testing.T) {
		reset()
		ffs := NewFaultFS(iofault.OS, 400, Profile{FailRenameOp: 1})
		if err := writeStoreAtomic(ffs, path, newStore); !errors.Is(err, ErrRenameFault) {
			t.Fatalf("renamefail: err = %v", err)
		}
		checkRecovery(t, "renamefail", false)
	})
}

// ---------------------------------------------------------------------------
// Component: journal append

func chaosSweeps(n int) []store.JournalSweep {
	out := make([]store.JournalSweep, 0, n)
	for i := 0; i < n; i++ {
		rec := store.JournalSweep{
			Day:   simtime.Day(900 + i*7),
			Stats: store.JournalStats{Domains: 4, Failed: i % 2},
		}
		if i == 2 {
			rec.Missing = true
			rec.Stats = store.JournalStats{}
			out = append(out, rec)
			continue
		}
		for j := 0; j < 4; j++ {
			rec.Measurements = append(rec.Measurements, store.Measurement{
				Domain: fmt.Sprintf("dom%02d.ru.", j),
				Day:    rec.Day,
				Config: store.Config{NSHosts: []string{fmt.Sprintf("ns%d.ru.", (i+j)%3)}},
			})
		}
		out = append(out, rec)
	}
	return out
}

// appendAll journals recs[from:] onto an open journal.
func appendAll(j *store.Journal, recs []store.JournalSweep, from int) error {
	for _, rec := range recs[from:] {
		if err := j.AppendSweep(rec); err != nil {
			return err
		}
	}
	return nil
}

// buildJournal writes the full journal through fsys, returning the
// first error; the file is closed either way.
func buildJournal(fsys iofault.FS, path string, recs []store.JournalSweep) error {
	j, err := store.CreateJournalFS(fsys, path)
	if err != nil {
		return err
	}
	defer j.Close()
	return appendAll(j, recs, 0)
}

// resumeJournal repairs the journal at path (fsck), reopens it, and
// appends whichever of recs the replay shows missing — the journal-level
// shape of crash recovery.
func resumeJournal(t *testing.T, path string, recs []store.JournalSweep) {
	t.Helper()
	if _, err := store.RepairJournalFS(iofault.OS, path); err != nil {
		t.Fatalf("fsck: %v", err)
	}
	j, replay, err := store.OpenJournal(path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if replay.Torn() {
		t.Fatalf("journal still torn after repair")
	}
	if err := appendAll(j, recs, len(replay.Sweeps)); err != nil {
		t.Fatalf("resume append: %v", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestChaosJournalAppend crosses journal creation and appending with
// every fault class: whatever byte the disk dies at, fsck plus a
// resumed append sequence reproduces the uninterrupted journal exactly.
func TestChaosJournalAppend(t *testing.T) {
	dir := t.TempDir()
	recs := chaosSweeps(6)

	refPath := filepath.Join(dir, "ref.wrjl")
	meter := NewFaultFS(iofault.OS, 1, Profile{})
	if err := buildJournal(meter, refPath, recs); err != nil {
		t.Fatal(err)
	}
	ref := mustRead(t, refPath)
	total := meter.Stats().BytesWritten
	if total != int64(len(ref)) {
		t.Fatalf("metered %d bytes, file is %d", total, len(ref))
	}

	path := filepath.Join(dir, "j.wrjl")
	t.Run("crash", func(t *testing.T) {
		for _, off := range sampleOffsets(total, crashSamples, 0x1A01) {
			os.Remove(path)
			ffs := NewFaultFS(iofault.OS, 500+off, Profile{CrashAtByte: off})
			expectCrash(t, off, func() { buildJournal(ffs, path, recs) })
			resumeJournal(t, path, recs)
			if got := mustRead(t, path); !bytes.Equal(got, ref) {
				t.Fatalf("crash@%d: resumed journal differs from uninterrupted run", off)
			}
		}
	})
	t.Run("enospc", func(t *testing.T) {
		for _, off := range sampleOffsets(total-1, 8, 0x1A02) {
			os.Remove(path)
			ffs := NewFaultFS(iofault.OS, 600+off, Profile{DiskFullAtByte: off})
			err := buildJournal(ffs, path, recs)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("enospc@%d: err = %v", off, err)
			}
			// The rolled-back journal must already be clean — fsck finds
			// nothing to do — and resumable.
			if replay, err := store.VerifyJournal(path); err == nil && replay.Torn() {
				t.Fatalf("enospc@%d: rolled-back journal is torn", off)
			}
			resumeJournal(t, path, recs)
			if got := mustRead(t, path); !bytes.Equal(got, ref) {
				t.Fatalf("enospc@%d: resumed journal differs", off)
			}
		}
	})
	t.Run("syncfail", func(t *testing.T) {
		// Op 1 is the header sync; op k>1 is the (k-1)th append's sync.
		for op := 1; op <= len(recs)+1; op++ {
			os.Remove(path)
			ffs := NewFaultFS(iofault.OS, 700+int64(op), Profile{FailSyncOp: op})
			err := buildJournal(ffs, path, recs)
			if !errors.Is(err, ErrSyncFault) {
				t.Fatalf("syncfail@%d: err = %v", op, err)
			}
			resumeJournal(t, path, recs)
			if got := mustRead(t, path); !bytes.Equal(got, ref) {
				t.Fatalf("syncfail@%d: resumed journal differs", op)
			}
		}
	})
	t.Run("torn-rename", func(t *testing.T) {
		// The journal protocol is append-only — it never renames. A
		// rename-fault profile must therefore be a no-op against it: the
		// build completes, bytes identical, nothing injected.
		os.Remove(path)
		ffs := NewFaultFS(iofault.OS, 800, Profile{FailRenameOp: 1})
		if err := buildJournal(ffs, path, recs); err != nil {
			t.Fatalf("renamefail: %v", err)
		}
		if got := mustRead(t, path); !bytes.Equal(got, ref) {
			t.Fatal("renamefail: journal differs")
		}
		if ffs.Stats().Injected != 0 {
			t.Fatal("renamefail: journal performed a rename?")
		}
	})
}

// ---------------------------------------------------------------------------
// Component: end-to-end checkpointed collection

// chaosOpts is the end-to-end configuration: a handful of dense sweeps
// over one month at tiny scale — cheap enough to re-collect once per
// crash offset while exercising the full pipeline.
func chaosOpts() core.Options {
	return core.Options{
		World:      world.Config{Seed: 5, Scale: 20000, RFShare: 0.1},
		DenseStep:  7,
		CollectMX:  true,
		StudyStart: simtime.Date(2022, 2, 1),
		StudyEnd:   simtime.Date(2022, 3, 1),
	}
}

// runCheckpointed runs one checkpointed study through fsys: collect,
// render, save the store atomically. Returns the rendered report and
// the on-disk store bytes.
func runCheckpointed(t *testing.T, opts core.Options, fsys iofault.FS, journalPath, storePath string) ([]byte, []byte) {
	t.Helper()
	opts.CheckpointPath = journalPath
	opts.FS = fsys
	s, err := core.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Collect(context.Background()); err != nil {
		t.Fatal(err)
	}
	var report bytes.Buffer
	if err := s.RenderAll(&report); err != nil {
		t.Fatal(err)
	}
	if err := s.SaveStoreFile(storePath); err != nil {
		t.Fatal(err)
	}
	return report.Bytes(), mustRead(t, storePath)
}

// TestChaosCheckpoint is the end-to-end cell: a whole study whose disk
// dies at sampled byte offsets (covering both the checkpoint journal
// and the atomic store save), then an fsck + resumed study that must
// reproduce the uninterrupted run's report, store and journal bytes
// exactly.
func TestChaosCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("end-to-end chaos matrix skipped in -short")
	}
	opts := chaosOpts()
	dir := t.TempDir()
	refJournal, refStore := filepath.Join(dir, "ref.wrjl"), filepath.Join(dir, "ref.wrst")

	meter := NewFaultFS(iofault.OS, 1, Profile{})
	wantReport, wantStore := runCheckpointed(t, opts, meter, refJournal, refStore)
	total := meter.Stats().BytesWritten
	wantJournal := mustRead(t, refJournal)
	if total <= int64(len(wantJournal)) {
		t.Fatalf("metered %d bytes, journal alone is %d — store save not metered?", total, len(wantJournal))
	}

	// resumeAndCompare fscks both files, resumes the study on a healed
	// disk, and demands byte-identical outputs.
	resumeAndCompare := func(t *testing.T, label, journalPath, storePath string) {
		t.Helper()
		if _, err := store.RepairJournalFS(iofault.OS, journalPath); err != nil {
			t.Fatalf("%s: fsck: %v", label, err)
		}
		ropts := opts
		ropts.Resume = true
		report, storeBytes := runCheckpointed(t, ropts, iofault.OS, journalPath, storePath)
		if !bytes.Equal(report, wantReport) {
			t.Errorf("%s: resumed report differs from uninterrupted run", label)
		}
		if !bytes.Equal(storeBytes, wantStore) {
			t.Errorf("%s: resumed store differs from uninterrupted run", label)
		}
		if got := mustRead(t, journalPath); !bytes.Equal(got, wantJournal) {
			t.Errorf("%s: resumed journal differs from uninterrupted run", label)
		}
	}

	// crashRun runs the study expecting either an injected crash (panic)
	// or an injected error partway; both model a dying disk.
	crashRun := func(opts core.Options, fsys iofault.FS, journalPath, storePath string) (err error) {
		defer func() {
			if r := recover(); r != nil {
				c, ok := r.(*Crash)
				if !ok {
					panic(r)
				}
				err = c
			}
		}()
		opts.CheckpointPath = journalPath
		opts.FS = fsys
		s, nerr := core.New(opts)
		if nerr != nil {
			return nerr
		}
		if cerr := s.Collect(context.Background()); cerr != nil {
			return cerr
		}
		return s.SaveStoreFile(storePath)
	}

	t.Run("crash", func(t *testing.T) {
		n := crashSamples
		for i, off := range sampleOffsets(total, n, 0xE2E1) {
			journalPath := filepath.Join(dir, fmt.Sprintf("c%02d.wrjl", i))
			storePath := filepath.Join(dir, fmt.Sprintf("c%02d.wrst", i))
			ffs := NewFaultFS(iofault.OS, 900+off, Profile{CrashAtByte: off})
			err := crashRun(opts, ffs, journalPath, storePath)
			var crash *Crash
			if !errors.As(err, &crash) {
				t.Fatalf("crash@%d: run ended with %v, want an injected crash", off, err)
			}
			resumeAndCompare(t, fmt.Sprintf("crash@%d", off), journalPath, storePath)
		}
	})
	t.Run("enospc", func(t *testing.T) {
		for i, off := range sampleOffsets(total-1, 4, 0xE2E2) {
			journalPath := filepath.Join(dir, fmt.Sprintf("e%02d.wrjl", i))
			storePath := filepath.Join(dir, fmt.Sprintf("e%02d.wrst", i))
			ffs := NewFaultFS(iofault.OS, 1000+off, Profile{DiskFullAtByte: off})
			err := crashRun(opts, ffs, journalPath, storePath)
			if !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("enospc@%d: run ended with %v", off, err)
			}
			resumeAndCompare(t, fmt.Sprintf("enospc@%d", off), journalPath, storePath)
		}
	})
	t.Run("syncfail", func(t *testing.T) {
		for _, op := range []int{1, 2, 4} {
			journalPath := filepath.Join(dir, fmt.Sprintf("s%02d.wrjl", op))
			storePath := filepath.Join(dir, fmt.Sprintf("s%02d.wrst", op))
			ffs := NewFaultFS(iofault.OS, 1100+int64(op), Profile{FailSyncOp: op})
			err := crashRun(opts, ffs, journalPath, storePath)
			if !errors.Is(err, ErrSyncFault) {
				t.Fatalf("syncfail@%d: run ended with %v", op, err)
			}
			resumeAndCompare(t, fmt.Sprintf("syncfail@%d", op), journalPath, storePath)
		}
	})
	t.Run("torn-rename", func(t *testing.T) {
		// The only rename in the whole run is the store save's atomic
		// replace at the very end.
		journalPath := filepath.Join(dir, "r.wrjl")
		storePath := filepath.Join(dir, "r.wrst")
		ffs := NewFaultFS(iofault.OS, 1200, Profile{FailRenameOp: 1})
		err := crashRun(opts, ffs, journalPath, storePath)
		if !errors.Is(err, ErrRenameFault) {
			t.Fatalf("renamefail: run ended with %v", err)
		}
		if _, err := os.Stat(storePath); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("renamefail: torn store save left %s behind", storePath)
		}
		resumeAndCompare(t, "renamefail", journalPath, storePath)
	})
}

// ---------------------------------------------------------------------------
// Component: fsck repair of a damaged store

// TestChaosRepair damages a store, then crosses the repair's atomic
// rewrite with every fault class: a failed or crashed repair must leave
// the damaged-but-recoverable original untouched, and a retry on a
// healed disk must produce the reference repair bytes exactly.
func TestChaosRepair(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "victim.wrst")

	if err := writeStoreAtomic(iofault.OS, path, chaosStore(6)); err != nil {
		t.Fatal(err)
	}
	clean := mustRead(t, path)
	damaged := append([]byte(nil), clean...)
	damaged[len(damaged)*2/3] ^= 0x08

	// repairThrough mirrors rustore's fsck -repair: tolerant read, then
	// an atomic rewrite of the recovered contents through fsys.
	repairThrough := func(fsys iofault.FS) error {
		st, rec, err := store.ReadRecover(bytes.NewReader(mustRead(t, path)))
		if err != nil {
			return err
		}
		if !rec.Damaged {
			return fmt.Errorf("victim not damaged")
		}
		return iofault.WriteAtomic(fsys, path, func(w io.Writer) error {
			_, err := st.WriteTo(w)
			return err
		})
	}
	reset := func() {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Reference repair on a healthy disk.
	reset()
	if err := repairThrough(iofault.OS); err != nil {
		t.Fatal(err)
	}
	ref := mustRead(t, path)
	if _, err := store.Read(bytes.NewReader(ref)); err != nil {
		t.Fatalf("reference repair is not strictly readable: %v", err)
	}
	total := int64(len(ref))

	check := func(t *testing.T, label string) {
		t.Helper()
		if got := mustRead(t, path); !bytes.Equal(got, damaged) {
			t.Fatalf("%s: failed repair altered the original", label)
		}
		if err := repairThrough(iofault.OS); err != nil {
			t.Fatalf("%s: retry: %v", label, err)
		}
		if got := mustRead(t, path); !bytes.Equal(got, ref) {
			t.Fatalf("%s: retried repair differs from reference", label)
		}
	}

	t.Run("crash", func(t *testing.T) {
		for _, off := range sampleOffsets(total, crashSamples, 0xF1C1) {
			reset()
			ffs := NewFaultFS(iofault.OS, 1300+off, Profile{CrashAtByte: off})
			expectCrash(t, off, func() { repairThrough(ffs) })
			check(t, fmt.Sprintf("crash@%d", off))
		}
	})
	t.Run("enospc", func(t *testing.T) {
		for _, off := range sampleOffsets(total-1, 8, 0xF1C2) {
			reset()
			ffs := NewFaultFS(iofault.OS, 1400+off, Profile{DiskFullAtByte: off})
			if err := repairThrough(ffs); !errors.Is(err, syscall.ENOSPC) {
				t.Fatalf("enospc@%d: err = %v", off, err)
			}
			check(t, fmt.Sprintf("enospc@%d", off))
		}
	})
	t.Run("syncfail", func(t *testing.T) {
		reset()
		ffs := NewFaultFS(iofault.OS, 1500, Profile{FailSyncOp: 1})
		if err := repairThrough(ffs); !errors.Is(err, ErrSyncFault) {
			t.Fatalf("syncfail: err = %v", err)
		}
		check(t, "syncfail")
	})
	t.Run("torn-rename", func(t *testing.T) {
		reset()
		ffs := NewFaultFS(iofault.OS, 1600, Profile{FailRenameOp: 1})
		if err := repairThrough(ffs); !errors.Is(err, ErrRenameFault) {
			t.Fatalf("renamefail: err = %v", err)
		}
		check(t, "renamefail")
	})
}
