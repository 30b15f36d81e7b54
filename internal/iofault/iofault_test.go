package iofault_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/iofault"
	"whereru/internal/iofault/chaostest"
)

func TestOSPassthroughRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "f")
	f, err := iofault.Create(iofault.OS, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"hello ", "world"} {
		if _, err := f.Write([]byte(c)); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	f.Close()
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	if err := iofault.OS.SyncDir(filepath.Dir(path)); err != nil {
		t.Fatalf("SyncDir: %v", err)
	}
}

func TestWriteAtomicReplacesOrPreserves(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store")
	old := []byte("previous good store")
	os.WriteFile(path, old, 0o644)
	newContent := bytes.Repeat([]byte("new!"), 64)

	// Clean replace.
	if err := iofault.WriteAtomic(iofault.OS, path, func(w io.Writer) error { _, err := w.Write(newContent); return err }); err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, newContent) {
		t.Fatal("clean WriteAtomic did not replace")
	}

	// Every failure mode must leave the previous content untouched and
	// no temp file behind.
	cases := []struct {
		name string
		p    chaostest.Profile
	}{
		{"enospc", chaostest.Profile{DiskFullAtByte: 10}},
		{"writeerr", chaostest.Profile{WriteErrProb: 1}},
		{"syncfail", chaostest.Profile{FailSyncOp: 1}},
		{"renamefail", chaostest.Profile{FailRenameOp: 1}},
	}
	for _, tc := range cases {
		os.WriteFile(path, old, 0o644)
		ffs := chaostest.NewFaultFS(iofault.OS, 9, tc.p)
		err := iofault.WriteAtomic(ffs, path, func(w io.Writer) error { _, err := w.Write(newContent); return err })
		if !errors.Is(err, chaostest.ErrInjected) {
			t.Fatalf("%s: err = %v, want an injected fault", tc.name, err)
		}
		got, _ := os.ReadFile(path)
		if !bytes.Equal(got, old) {
			t.Errorf("%s: previous content destroyed", tc.name)
		}
		if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: temp file left behind", tc.name)
		}
	}

	// A crash mid-write leaves the previous content visible at path
	// (the torn bytes live only in the temp file).
	os.WriteFile(path, old, 0o644)
	ffs := chaostest.NewFaultFS(iofault.OS, 9, chaostest.Profile{CrashAtByte: 17})
	func() {
		defer func() {
			if _, ok := recover().(*chaostest.Crash); !ok {
				t.Fatal("expected crash")
			}
		}()
		iofault.WriteAtomic(ffs, path, func(w io.Writer) error { _, err := w.Write(newContent); return err })
	}()
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, old) {
		t.Fatal("crash mid-atomic-write destroyed the previous content")
	}
}
