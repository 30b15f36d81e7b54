package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"whereru/internal/iofault"
	"whereru/internal/iofault/chaostest"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// quiet silences the command's stdout for the duration of the test.
func quiet(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

// buildStoreFile writes a small multi-sweep store and returns its path
// and bytes.
func buildStoreFile(t *testing.T, dir string) (string, []byte) {
	t.Helper()
	s := store.New()
	for i := 0; i < 6; i++ {
		day := simtime.Day(600 + i*7)
		s.BeginSweep(day)
		for j := 0; j < 8; j++ {
			s.Add(store.Measurement{
				Domain: fmt.Sprintf("dom%02d.ru.", j),
				Day:    day,
				Config: store.Config{
					NSHosts: []string{fmt.Sprintf("ns%d.prov%d.ru.", j%2, j%3)},
				},
			})
		}
	}
	s.MarkMissingSweep(593)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "s.wrst")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, buf.Bytes()
}

// storeSectionEnds walks the v3 framing and returns each section's end
// offset — the damage sample points.
func storeSectionEnds(t *testing.T, full []byte) []int {
	t.Helper()
	var ends []int
	off := 6
	for off < len(full) {
		if off+4 > len(full) {
			t.Fatalf("torn framing at %d", off)
		}
		payloadLen := int(binary.BigEndian.Uint32(full[off:]))
		off += 4 + payloadLen + 4
		ends = append(ends, off)
	}
	return ends
}

func TestFsckCleanStore(t *testing.T) {
	quiet(t)
	path, _ := buildStoreFile(t, t.TempDir())
	if err := run([]string{"fsck", path}); err != nil {
		t.Fatalf("fsck on a clean store: %v", err)
	}
}

// TestFsckRepairStoreSectionFaults damages every section of a store
// file in turn — one flipped byte inside it, and a truncation at its
// boundary — and asserts fsck reports the damage, fsck -repair rewrites
// the recoverable contents, and the repaired file is strictly readable
// and clean.
func TestFsckRepairStoreSectionFaults(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	_, full := buildStoreFile(t, dir)
	ends := storeSectionEnds(t, full)

	prev := 6
	for i, end := range ends {
		for _, variant := range []string{"flip", "cut"} {
			path := filepath.Join(dir, fmt.Sprintf("d%02d-%s.wrst", i, variant))
			damaged := append([]byte(nil), full...)
			if variant == "flip" {
				damaged[prev+(end-prev)/2] ^= 0x20
			} else {
				if end == len(full) {
					continue // cutting at the final boundary is a clean file
				}
				damaged = damaged[:end+3] // torn mid-framing of the next section
			}
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			err := run([]string{"fsck", path})
			if err == nil || !strings.Contains(err.Error(), "-repair") {
				t.Fatalf("section %d %s: fsck without -repair = %v, want damage pointing at -repair", i, variant, err)
			}
			if err := run([]string{"fsck", path, "-repair"}); err != nil {
				t.Fatalf("section %d %s: fsck -repair: %v", i, variant, err)
			}
			// The repaired file is strictly valid and clean.
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := store.Read(f); err != nil {
				t.Fatalf("section %d %s: repaired store rejected by strict Read: %v", i, variant, err)
			}
			f.Close()
			if err := run([]string{"fsck", path}); err != nil {
				t.Fatalf("section %d %s: repaired store not clean: %v", i, variant, err)
			}
		}
		prev = end
	}
}

func TestFsckRepairJournalTornTail(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wrjl")
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		rec := store.JournalSweep{Day: simtime.Day(700 + i*7), Stats: store.JournalStats{Domains: 1}}
		rec.Measurements = []store.Measurement{{
			Domain: "a.ru.", Day: rec.Day,
			Config: store.Config{NSHosts: []string{"ns.a.ru."}},
		}}
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	// Tear the tail.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.Write([]byte{0x00, 0x00, 0x01}) // torn length prefix
	f.Close()

	if err := run([]string{"fsck", path}); err == nil {
		t.Fatal("fsck accepted a torn journal")
	}
	if err := run([]string{"fsck", path, "-repair"}); err != nil {
		t.Fatalf("fsck -repair: %v", err)
	}
	replay, err := store.VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Torn() || len(replay.Sweeps) != 3 {
		t.Fatalf("after repair: torn=%v sweeps=%d", replay.Torn(), len(replay.Sweeps))
	}
}

// TestFsckRepairFaulted drives the repair itself through a FaultFS: a
// failing rename or a crash mid-rewrite must leave the damaged-but-
// recoverable original in place, so a second repair attempt succeeds.
func TestFsckRepairFaulted(t *testing.T) {
	quiet(t)
	dir := t.TempDir()
	_, full := buildStoreFile(t, dir)
	path := filepath.Join(dir, "victim.wrst")
	damaged := append([]byte(nil), full...)
	damaged[len(damaged)*3/4] ^= 0x10
	writeVictim := func() {
		if err := os.WriteFile(path, damaged, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	defer func() { fsys = iofault.OS }()

	// Rename failure: the repair errors, the original survives.
	writeVictim()
	fsys = chaostest.NewFaultFS(iofault.OS, 51, chaostest.Profile{FailRenameOp: 1})
	if err := run([]string{"fsck", path, "-repair"}); !errors.Is(err, chaostest.ErrRenameFault) {
		t.Fatalf("repair with failing rename = %v", err)
	}
	got, _ := os.ReadFile(path)
	if !bytes.Equal(got, damaged) {
		t.Fatal("failed repair altered the original")
	}

	// Crash mid-rewrite: same guarantee.
	writeVictim()
	fsys = chaostest.NewFaultFS(iofault.OS, 52, chaostest.Profile{CrashAtByte: 40})
	func() {
		defer func() {
			if _, ok := recover().(*chaostest.Crash); !ok {
				t.Fatal("expected injected crash")
			}
		}()
		run([]string{"fsck", path, "-repair"})
	}()
	got, _ = os.ReadFile(path)
	if !bytes.Equal(got, damaged) {
		t.Fatal("crashed repair altered the original")
	}

	// The disk heals; the retry completes and the file comes back clean.
	fsys = iofault.OS
	if err := run([]string{"fsck", path, "-repair"}); err != nil {
		t.Fatalf("retry after faults: %v", err)
	}
	if err := run([]string{"fsck", path}); err != nil {
		t.Fatalf("repaired store not clean: %v", err)
	}
}

// captureStdout runs f and returns what it printed.
func captureStdout(t *testing.T, f func() error) (string, error) {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	old := os.Stdout
	os.Stdout = out
	ferr := f()
	os.Stdout = old
	b, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b), ferr
}

// TestJournalFormatVersion: fsck and info name a journal's format version,
// and a journal in a refused older version is reported as refused — not
// DAMAGED, which would invite a -repair — and left untouched.
func TestJournalFormatVersion(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.wrjl")
	j, err := store.CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(store.JournalSweep{Day: 700, Missing: true}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	for _, verb := range []string{"fsck", "info"} {
		out, err := captureStdout(t, func() error { return run([]string{verb, path}) })
		if err != nil || !strings.Contains(out, "sweep journal format v3") {
			t.Fatalf("%s on a current journal: %v\n%s", verb, err, out)
		}
	}

	for v := 1; v <= 2; v++ {
		old, err := os.ReadFile(filepath.Join("..", "..", "internal", "store", "testdata", "golden", fmt.Sprintf("journal-v%d.bin", v)))
		if err != nil {
			t.Fatal(err)
		}
		path = filepath.Join(dir, fmt.Sprintf("v%d.wrjl", v))
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{"fsck", path}, {"fsck", path, "-repair"}, {"info", path}, {"tail", path}} {
			out, err := captureStdout(t, func() error { return run(args) })
			if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("journal version %d refused", v)) || strings.Contains(out, "DAMAGED") {
				t.Fatalf("%v on a v%d journal: %v\n%s", args, v, err, out)
			}
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("a refused v%d journal was modified", v)
		}
	}
}
