package chaostest

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"syscall"
	"testing"

	"whereru/internal/iofault"
)

func writeAll(t *testing.T, fsys iofault.FS, path string, chunks ...[]byte) error {
	t.Helper()
	f, err := iofault.Create(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			return err
		}
	}
	return f.Sync()
}

func TestCrashAtByteWritesExactPrefix(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	payload := bytes.Repeat([]byte("0123456789"), 10) // 100 bytes
	for _, crashAt := range []int64{1, 7, 37, 99} {
		ffs := NewFaultFS(iofault.OS, 42, Profile{CrashAtByte: crashAt})
		func() {
			defer func() {
				c, ok := recover().(*Crash)
				if !ok {
					t.Fatalf("crashAt=%d: expected *Crash panic", crashAt)
				}
				if c.TotalBytes != crashAt {
					t.Errorf("crashAt=%d: crashed at %d", crashAt, c.TotalBytes)
				}
			}()
			f, err := iofault.Create(ffs, path)
			if err != nil {
				t.Fatal(err)
			}
			// Two writes so crashes can land mid-stream of either.
			f.Write(payload[:50])
			f.Write(payload[50:])
			t.Fatalf("crashAt=%d: no crash fired", crashAt)
		}()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload[:crashAt]) {
			t.Errorf("crashAt=%d: file holds %d bytes, want the exact %d-byte prefix", crashAt, len(got), crashAt)
		}
		if !ffs.Stats().Crashed {
			t.Errorf("crashAt=%d: stats do not report the crash", crashAt)
		}
	}
}

func TestDiskFullShortWriteThenError(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	ffs := NewFaultFS(iofault.OS, 7, Profile{DiskFullAtByte: 5})
	err := writeAll(t, ffs, path, []byte("abc"), []byte("defg"))
	if !errors.Is(err, ErrDiskFull) || !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrInjected) {
		t.Fatalf("err = %v, want ErrDiskFull wrapping ENOSPC and ErrInjected", err)
	}
	got, _ := os.ReadFile(path)
	if string(got) != "abcde" {
		t.Fatalf("disk holds %q, want the 5 bytes that fit", got)
	}
	// The full disk stays full: later writes fail too.
	if err := writeAll(t, ffs, path, []byte("x")); !errors.Is(err, ErrDiskFull) {
		t.Fatalf("write on full disk: %v", err)
	}
}

func TestFailSyncAndRenameOps(t *testing.T) {
	dir := t.TempDir()
	ffs := NewFaultFS(iofault.OS, 3, Profile{FailSyncOp: 2})
	f, err := iofault.Create(ffs, filepath.Join(dir, "f"))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("first sync: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrSyncFault) {
		t.Fatalf("second sync = %v, want ErrSyncFault", err)
	}
	if err := f.Sync(); err != nil {
		t.Fatalf("third sync: %v", err)
	}
	f.Close()

	rfs := NewFaultFS(iofault.OS, 3, Profile{FailRenameOp: 1})
	src := filepath.Join(dir, "src")
	os.WriteFile(src, []byte("x"), 0o644)
	if err := rfs.Rename(src, filepath.Join(dir, "dst")); !errors.Is(err, ErrRenameFault) {
		t.Fatalf("rename = %v, want ErrRenameFault", err)
	}
	if _, err := os.Stat(src); err != nil {
		t.Fatalf("failed rename moved the source: %v", err)
	}
	if err := rfs.Rename(src, filepath.Join(dir, "dst")); err != nil {
		t.Fatalf("second rename: %v", err)
	}
}

// TestProbabilisticFaultsDeterministic: the same seed injects the same
// faults at the same op-indices; a different seed diverges.
func TestProbabilisticFaultsDeterministic(t *testing.T) {
	run := func(seed int64) []bool {
		dir := t.TempDir()
		ffs := NewFaultFS(iofault.OS, seed, Profile{ShortWriteProb: 0.3, WriteErrProb: 0.2})
		f, err := iofault.Create(ffs, filepath.Join(dir, "f"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		outcomes := make([]bool, 200)
		for i := range outcomes {
			_, err := f.Write([]byte("0123456789"))
			outcomes[i] = err != nil
		}
		return outcomes
	}
	a, b, c := run(11), run(11), run(12)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Error("same seed produced different fault schedules")
	}
	if !diff {
		t.Error("different seeds produced identical fault schedules")
	}
	n := 0
	for _, hit := range a {
		if hit {
			n++
		}
	}
	if n < 40 || n > 160 {
		t.Errorf("injected %d/200 faults, implausible for combined p≈0.44", n)
	}
}

func TestReadFaults(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "f")
	payload := bytes.Repeat([]byte{0xAA}, 4096)
	os.WriteFile(path, payload, 0o644)

	// Short reads never lose bytes, only defer them.
	sfs := NewFaultFS(iofault.OS, 5, Profile{ShortReadProb: 0.8})
	f, err := iofault.Open(sfs, path)
	if err != nil {
		t.Fatal(err)
	}
	got, err := io.ReadAll(f)
	f.Close()
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("short-read stream corrupted the data: err=%v len=%d", err, len(got))
	}
	if sfs.Stats().Injected == 0 {
		t.Fatal("no short reads injected at p=0.8")
	}

	// Bit flips damage the returned bytes, not the file.
	bfs := NewFaultFS(iofault.OS, 5, Profile{ReadBitFlipProb: 1})
	f2, _ := iofault.Open(bfs, path)
	flipped, _ := io.ReadAll(f2)
	f2.Close()
	if bytes.Equal(flipped, payload) {
		t.Fatal("ReadBitFlipProb=1 returned pristine bytes")
	}
	onDisk, _ := os.ReadFile(path)
	if !bytes.Equal(onDisk, payload) {
		t.Fatal("read fault damaged the file itself")
	}
}
