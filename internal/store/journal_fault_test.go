package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"whereru/internal/iofault"
	"whereru/internal/iofault/chaostest"
	"whereru/internal/simtime"
)

// seedJournal writes nGood sweeps through a clean FS and returns the
// path plus the file size — the durable baseline faults must not harm.
func seedJournal(t *testing.T, dir string, nGood int) (string, int64) {
	t.Helper()
	path := filepath.Join(dir, "sweeps.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < nGood; i++ {
		if err := j.AppendSweep(sweepRec(simtime.Day(100+7*i), "a.ru.", "b.ru.")); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return path, st.Size()
}

// TestJournalAppendENOSPCResumable: a full disk mid-append surfaces a
// typed ENOSPC, rolls the file back to the last durable segment, and the
// journal accepts the same sweep once space returns — nothing torn,
// nothing lost, nothing duplicated.
func TestJournalAppendENOSPCResumable(t *testing.T) {
	path, goodSize := seedJournal(t, t.TempDir(), 2)

	// The disk fills 10 bytes into the third append (DiskFullAtByte
	// budgets bytes written through this FS, which has written none yet).
	ffs := chaostest.NewFaultFS(iofault.OS, 21, chaostest.Profile{DiskFullAtByte: 10})
	j, replay, err := ResumeJournalFS(ffs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Sweeps) != 2 || replay.Torn() {
		t.Fatalf("baseline replay: %d sweeps, torn=%v", len(replay.Sweeps), replay.Torn())
	}
	rec := sweepRec(simtime.Day(200), "c.ru.")
	err = j.AppendSweep(rec)
	if !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("append on full disk = %v, want an ENOSPC-wrapping error", err)
	}
	j.Close()

	// Rollback left the file exactly at the durable prefix: clean, two
	// sweeps, no torn tail for fsck to complain about.
	v, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if v.Torn() || len(v.Sweeps) != 2 || v.GoodBytes != goodSize {
		t.Fatalf("after ENOSPC: torn=%v sweeps=%d good=%d (want clean, 2, %d)",
			v.Torn(), len(v.Sweeps), v.GoodBytes, goodSize)
	}

	// Space clears; the same journal file resumes and takes the sweep.
	j2, replay2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay2.Torn() {
		t.Fatalf("resume found a torn tail after a rolled-back append")
	}
	if err := j2.AppendSweep(rec); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	v2, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(v2.Sweeps) != 3 || v2.Sweeps[2].Day != 200 {
		t.Fatalf("after resume: %d sweeps", len(v2.Sweeps))
	}
}

// TestJournalAppendSyncFaultRollsBack: when the fsync of a new segment
// fails, the segment's bytes may or may not be on disk — so AppendSweep
// must retract them rather than advance past an unproven write.
func TestJournalAppendSyncFaultRollsBack(t *testing.T) {
	path, goodSize := seedJournal(t, t.TempDir(), 1)

	ffs := chaostest.NewFaultFS(iofault.OS, 22, chaostest.Profile{FailSyncOp: 1})
	j, _, err := ResumeJournalFS(ffs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = j.AppendSweep(sweepRec(simtime.Day(300), "d.ru."))
	if !errors.Is(err, chaostest.ErrSyncFault) {
		t.Fatalf("append with failing fsync = %v", err)
	}
	j.Close()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != goodSize {
		t.Fatalf("file is %d bytes after failed sync, want rollback to %d", st.Size(), goodSize)
	}
	if v, err := VerifyJournal(path); err != nil || v.Torn() || len(v.Sweeps) != 1 {
		t.Fatalf("journal damaged by failed sync: %v, %+v", err, v)
	}
}

// TestJournalShortWriteRollsBack: injected short writes (n < len with
// an error) must not leave a partial frame behind.
func TestJournalShortWriteRollsBack(t *testing.T) {
	path, goodSize := seedJournal(t, t.TempDir(), 1)
	ffs := chaostest.NewFaultFS(iofault.OS, 23, chaostest.Profile{ShortWriteProb: 1})
	j, _, err := ResumeJournalFS(ffs, path, nil)
	if err != nil {
		t.Fatal(err)
	}
	err = j.AppendSweep(sweepRec(simtime.Day(300), "d.ru."))
	if !errors.Is(err, chaostest.ErrShortWrite) {
		t.Fatalf("append = %v, want short-write error", err)
	}
	j.Close()
	if st, _ := os.Stat(path); st.Size() != goodSize {
		t.Fatalf("file is %d bytes, want %d", st.Size(), goodSize)
	}
}

// TestJournalTornBytesCountActualBytes: TornBytes must count the bytes
// actually present after the good prefix — not the length a torn frame's
// prefix promised — so GoodBytes+TornBytes always equals the file size.
// (A crash mid-append leaves a 35 KB frame's first 4 KB on disk; fsck
// must report 4 KB torn, not 35 KB.)
func TestJournalTornBytesCountActualBytes(t *testing.T) {
	path, goodSize := seedJournal(t, t.TempDir(), 2)
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Start a third frame but deliver only its length prefix plus a
	// sliver of payload — a crash-truncated tail.
	frame := full[6:] // first segment: 4-byte len + payload + crc
	torn := frame[:12]
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	v, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Sweeps) != 2 || v.GoodBytes != goodSize {
		t.Fatalf("good prefix: sweeps=%d good=%d, want 2, %d", len(v.Sweeps), v.GoodBytes, goodSize)
	}
	if v.TornBytes != int64(len(torn)) {
		t.Fatalf("TornBytes = %d, want the %d bytes actually on disk", v.TornBytes, len(torn))
	}
	if st, _ := os.Stat(path); v.GoodBytes+v.TornBytes != st.Size() {
		t.Fatalf("GoodBytes(%d)+TornBytes(%d) != file size %d", v.GoodBytes, v.TornBytes, st.Size())
	}
}

// offerFS is the real filesystem with every file opened through it
// recording the largest buffer a read offered it, and the bytes read.
type offerFS struct {
	iofault.FS
	most, read int
}

type offerFile struct {
	iofault.File
	fs *offerFS
}

func (o *offerFS) OpenFile(name string, flag int, perm os.FileMode) (iofault.File, error) {
	f, err := o.FS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return offerFile{f, o}, nil
}

func (f offerFile) Read(p []byte) (int, error) {
	f.fs.most = max(f.fs.most, len(p))
	n, err := f.File.Read(p)
	f.fs.read += n
	return n, err
}

// TestVerifyJournalStreams: VerifyJournal reads the file a segment at a
// time, the way OpenJournal does, instead of slurping it whole before
// decoding — so the memory it grows follows what it decodes, not the file
// size. Eight megabytes of garbage behind two good sweeps must be counted
// as torn, read through a buffer the size of a segment: read off the
// buffers the scan offers the file, not off a process-wide allocation
// counter that every other test moves too.
func TestVerifyJournalStreams(t *testing.T) {
	path, goodSize := seedJournal(t, t.TempDir(), 2)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	junk := bytes.Repeat([]byte{0xff}, 8<<20)
	if _, err := f.Write(junk); err != nil {
		t.Fatal(err)
	}
	f.Close()

	fsys := &offerFS{FS: iofault.OS}
	v, err := scanJournalFile(fsys, path, nil, true) // VerifyJournal's scan
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Sweeps) != 2 || v.GoodBytes != goodSize || v.TornBytes != int64(len(junk)) {
		t.Fatalf("sweeps=%d good=%d torn=%d, want 2, %d, %d", len(v.Sweeps), v.GoodBytes, v.TornBytes, goodSize, len(junk))
	}
	if int64(fsys.read) != goodSize+int64(len(junk)) || fsys.most > 1<<20 {
		t.Fatalf("verifying a journal with an %d-byte torn tail read %d bytes through a %d-byte buffer", len(junk), fsys.read, fsys.most)
	}
}

// TestJournalTornTailTruncateIsSynced: OpenJournal fsyncs the torn-tail
// truncation before handing the journal back — a failing fsync there
// must refuse the open instead of letting appends land over bytes the
// disk may still resurrect.
func TestJournalTornTailTruncateIsSynced(t *testing.T) {
	path, _ := seedJournal(t, t.TempDir(), 2)
	// Tear the tail: append garbage that fails framing.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0xFF, 0xFF})
	f.Close()

	ffs := chaostest.NewFaultFS(iofault.OS, 24, chaostest.Profile{FailSyncOp: 1})
	_, _, err = ResumeJournalFS(ffs, path, nil)
	if !errors.Is(err, chaostest.ErrSyncFault) {
		t.Fatalf("open with failing truncate-fsync = %v, want refusal", err)
	}

	// The refused open already truncated in place (only its durability
	// was unproven), so re-tear before exercising the healthy path.
	f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0xFF, 0xFF, 0xFF})
	f.Close()

	// Without the fault the same open truncates, syncs and resumes.
	j, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if !replay.Torn() || len(replay.Sweeps) != 2 {
		t.Fatalf("replay = torn=%v sweeps=%d", replay.Torn(), len(replay.Sweeps))
	}
}
