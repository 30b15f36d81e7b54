package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whereru/internal/iofault"
	"whereru/internal/iofault/chaostest"
	"whereru/internal/simtime"
)

func sweepRec(day simtime.Day, domains ...string) JournalSweep {
	rec := JournalSweep{
		Day:   day,
		Stats: JournalStats{Domains: len(domains), Unreachable: 1},
	}
	for _, d := range domains {
		rec.Measurements = append(rec.Measurements, Measurement{
			Domain: d,
			Day:    day,
			Config: cfg([]string{"ns." + d}, []string{"11.0.0.1"}, []string{"11.0.1.1"}),
		})
	}
	return rec
}

func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := []JournalSweep{
		sweepRec(100, "b.ru.", "a.ru."),
		{Day: 107, Missing: true},
		sweepRec(114, "a.ru."),
	}
	for _, r := range recs {
		if err := j.AppendSweep(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	replay, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if replay.Torn() {
		t.Fatalf("clean journal reported torn (%d bytes)", replay.TornBytes)
	}
	if len(replay.Sweeps) != 3 {
		t.Fatalf("replayed %d sweeps, want 3", len(replay.Sweeps))
	}
	got := replay.Sweeps
	if got[0].Day != 100 || got[1].Day != 107 || got[2].Day != 114 {
		t.Fatalf("days = %d,%d,%d", got[0].Day, got[1].Day, got[2].Day)
	}
	if !got[1].Missing || got[0].Missing || got[2].Missing {
		t.Fatal("missing flags wrong")
	}
	if got[0].Stats != recs[0].Stats {
		t.Fatalf("stats = %+v, want %+v", got[0].Stats, recs[0].Stats)
	}
	// Measurements come back sorted by domain regardless of append order.
	if got[0].Measurements[0].Domain != "a.ru." || got[0].Measurements[1].Domain != "b.ru." {
		t.Fatalf("measurements not sorted: %+v", got[0].Measurements)
	}
	want := recs[0].Measurements[1] // a.ru., appended second
	if !reflect.DeepEqual(got[0].Measurements[0], want) {
		t.Fatalf("measurement round trip: %+v != %+v", got[0].Measurements[0], want)
	}
}

func TestJournalAppendAfterReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweeps.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(sweepRec(10, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replay.Sweeps) != 1 || replay.Torn() {
		t.Fatalf("replay = %d sweeps, torn=%v", len(replay.Sweeps), replay.Torn())
	}
	if rec := replay.Sweeps[0]; rec.Day != 10 || rec.Stats.Domains != 1 || rec.Measurements != nil {
		t.Fatalf("opening to append listed %+v, want day 10, its stats and no measurements", rec)
	}
	if err := j2.AppendSweep(sweepRec(17, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	final, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(final.Sweeps) != 2 || final.Sweeps[1].Day != 17 {
		t.Fatalf("after reopen: %d sweeps", len(final.Sweeps))
	}
}

// TestJournalTornTail truncates the file mid-segment at every possible
// cut point and asserts OpenJournal always drops exactly the torn
// segment, keeps all prior ones, and leaves a file that later appends
// extend cleanly.
func TestJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	master := filepath.Join(dir, "master.wrjl")
	j, err := CreateJournal(master)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(sweepRec(10, "a.ru.", "b.ru.")); err != nil {
		t.Fatal(err)
	}
	sizeAfterFirst := fileSize(t, master)
	if err := j.AppendSweep(sweepRec(17, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j.Close()
	full, err := os.ReadFile(master)
	if err != nil {
		t.Fatal(err)
	}

	for cut := int(sizeAfterFirst); cut < len(full); cut++ {
		path := filepath.Join(dir, "torn.wrjl")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j2, replay, err := OpenJournal(path)
		if err != nil {
			t.Fatalf("cut=%d: OpenJournal: %v", cut, err)
		}
		if cut > int(sizeAfterFirst) && !replay.Torn() {
			t.Fatalf("cut=%d: torn tail not reported", cut)
		}
		if len(replay.Sweeps) != 1 || replay.Sweeps[0].Day != 10 {
			t.Fatalf("cut=%d: replay = %+v", cut, replay.Sweeps)
		}
		if got := fileSize(t, path); got != sizeAfterFirst {
			t.Fatalf("cut=%d: file not truncated to valid prefix (%d != %d)", cut, got, sizeAfterFirst)
		}
		// The repaired journal accepts new segments.
		if err := j2.AppendSweep(sweepRec(24, "c.ru.")); err != nil {
			t.Fatalf("cut=%d: append after repair: %v", cut, err)
		}
		j2.Close()
		final, err := VerifyJournal(path)
		if err != nil || final.Torn() || len(final.Sweeps) != 2 {
			t.Fatalf("cut=%d: after repair+append: %v, %+v", cut, err, final)
		}
		if final.Sweeps[1].Day != 24 {
			t.Fatalf("cut=%d: appended day = %d", cut, final.Sweeps[1].Day)
		}
	}
}

func TestJournalBitFlipDropsTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "flip.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	j.AppendSweep(sweepRec(10, "a.ru."))
	size := fileSize(t, path)
	j.AppendSweep(sweepRec(17, "b.ru."))
	j.Close()
	raw, _ := os.ReadFile(path)
	// Corrupt the second segment's payload.
	raw[int(size)+8] ^= 0x01
	os.WriteFile(path, raw, 0o644)

	replay, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if !replay.Torn() || len(replay.Sweeps) != 1 {
		t.Fatalf("checksum flip: torn=%v sweeps=%d", replay.Torn(), len(replay.Sweeps))
	}
	if replay.GoodBytes != size {
		t.Fatalf("GoodBytes = %d, want %d", replay.GoodBytes, size)
	}
}

func TestJournalHeaderValidation(t *testing.T) {
	if _, err := DecodeJournal(bytes.NewReader([]byte("WRJ"))); err == nil {
		t.Fatal("short header accepted")
	}
	if _, err := DecodeJournal(bytes.NewReader([]byte("XXXX\x00\x01"))); err == nil {
		t.Fatal("bad magic accepted")
	}
	if _, err := DecodeJournal(bytes.NewReader([]byte("WRJL\x00\x63"))); err == nil {
		t.Fatal("future version accepted")
	}
}

// TestJournalSyncHook counts durability points through the fault
// filesystem: the header is fsync 1, so with the third fsync failing the
// first append must land and the second must fail — an append that
// synced twice would fail the first.
func TestJournalSyncHook(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sync.wrjl")
	j, err := CreateJournalFS(chaostest.NewFaultFS(iofault.OS, 1, chaostest.Profile{FailSyncOp: 3}), path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendSweep(sweepRec(10, "a.ru.")); err != nil {
		t.Fatalf("first append: %v", err)
	}
	if err := j.AppendSweep(sweepRec(17, "a.ru.")); !errors.Is(err, chaostest.ErrSyncFault) {
		t.Fatalf("second append = %v, want ErrSyncFault", err)
	}
}

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
