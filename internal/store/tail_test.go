package store

import (
	"context"
	"encoding/binary"
	"net/netip"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"whereru/internal/simtime"
)

func tailRec(day int32, domain string) JournalSweep {
	return JournalSweep{
		Day:   simtime.Day(day),
		Stats: JournalStats{Domains: 1},
		Measurements: []Measurement{{
			Domain: domain,
			Day:    simtime.Day(day),
			Config: Config{
				NSHosts: []string{"ns1." + domain},
				NSAddrs: []netip.Addr{netip.MustParseAddr("192.0.2.1")},
			},
		}},
	}
}

func fastTail(t *testing.T, path string, off int64) *Tailer {
	t.Helper()
	tl, err := OpenTail(path, off)
	if err != nil {
		t.Fatal(err)
	}
	tl.SetPoll(5 * time.Millisecond)
	t.Cleanup(func() { tl.Close() })
	return tl
}

func TestTailerFollowsAppends(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendSweep(tailRec(100, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(JournalSweep{Day: simtime.Day(101), Missing: true}); err != nil {
		t.Fatal(err)
	}

	tl := fastTail(t, path, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()

	r1, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Day != simtime.Day(100) || len(r1.Measurements) != 1 || r1.Measurements[0].Domain != "a.ru." {
		t.Fatalf("first segment = %+v", r1)
	}
	r2, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Day != simtime.Day(101) || !r2.Missing {
		t.Fatalf("second segment = %+v", r2)
	}
	if lag := tl.Lag(); lag != 0 {
		t.Fatalf("caught-up Lag = %d, want 0", lag)
	}

	// A segment appended while the tailer is mid-Next must be delivered.
	go func() {
		time.Sleep(20 * time.Millisecond)
		j.AppendSweep(tailRec(102, "b.ru."))
	}()
	r3, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if r3.Day != simtime.Day(102) {
		t.Fatalf("live segment day = %s", r3.Day)
	}
}

func TestTailerResumesFromOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.AppendSweep(tailRec(100, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	replay, err := VerifyJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(tailRec(101, "b.ru.")); err != nil {
		t.Fatal(err)
	}

	tl := fastTail(t, path, replay.GoodBytes)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Day != simtime.Day(101) {
		t.Fatalf("resumed tail saw day %s, want %s", rec.Day, simtime.Day(101))
	}
}

func TestTailerWaitsOutTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(tailRec(100, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crashed writer: garbage beyond the last durable segment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := []byte{0x00, 0x00, 0x00, 0x20, 0xde, 0xad, 0xbe, 0xef}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	tl := fastTail(t, path, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if rec, err := tl.Next(ctx); err != nil {
		t.Fatal(err)
	} else if rec.Day != simtime.Day(100) {
		t.Fatalf("day = %s", rec.Day)
	}
	// The torn tail must read as "no data yet", not as an error or a
	// record.
	short, scancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer scancel()
	if rec, err := tl.Next(short); err != context.DeadlineExceeded {
		t.Fatalf("torn tail yielded (%+v, %v), want deadline", rec, err)
	}

	// A resuming writer truncates the tear and appends; the tailer picks
	// that up transparently.
	j2, replay, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if !replay.Torn() {
		t.Fatal("expected a torn tail")
	}
	if err := j2.AppendSweep(tailRec(101, "b.ru.")); err != nil {
		t.Fatal(err)
	}
	rec, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Day != simtime.Day(101) {
		t.Fatalf("post-repair day = %s", rec.Day)
	}
}

func TestTailerRejectsTruncationBelowOffset(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(tailRec(100, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	tl := fastTail(t, path, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := tl.Next(ctx); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, 6); err != nil {
		t.Fatal(err)
	}
	if _, err := tl.Next(ctx); err == nil || err == context.DeadlineExceeded {
		t.Fatalf("truncation below offset yielded %v, want a hard error", err)
	}
}

func TestTailerWaitsForFileCreation(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tl.SetPoll(5 * time.Millisecond)
	go func() {
		time.Sleep(20 * time.Millisecond)
		j, err := CreateJournal(path)
		if err != nil {
			return
		}
		defer j.Close()
		j.AppendSweep(tailRec(100, "a.ru."))
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rec, err := tl.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Day != simtime.Day(100) {
		t.Fatalf("day = %s", rec.Day)
	}
}

// retained is the capacity of the frame buffer a scanner keeps between
// segments (frame.Buffer's one field).
func retained(sc *journalScanner) int {
	return reflect.ValueOf(&sc.buf).Elem().FieldByName("b").Cap()
}

// TestTailerPollsIncompleteFrameInConstantSpace: while a large frame is
// only partly on disk — a writer mid-append, or a torn tail nobody has
// repaired — a poll reads its length prefix and waits. It neither reads
// nor buffers the bytes that are there: 200 polls over an 8 MiB stump
// leave the retained buffer as the first segment left it — reading the
// payload even once would grow it to the payload's size — and each
// allocates a few small values (the refusal's error among them). Read
// off the buffer and counted per poll, not off a process-wide byte
// counter that every other test moves too. When the rest arrives the
// segment is delivered.
func TestTailerPollsIncompleteFrameInConstantSpace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendSweep(tailRec(100, "a.ru.")); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// One big valid segment, all but its last byte appended.
	ms := make([]Measurement, 110_000)
	pad := string(make([]byte, 60))
	for i := range ms {
		ms[i] = Measurement{Domain: "d" + pad + string(binary.BigEndian.AppendUint32(nil, uint32(i))) + ".ru."}
	}
	seg := rawJournal(t, rawSweep(101, ms...))[journalHdrLen:]
	if len(seg) < 8<<20 {
		t.Fatalf("test segment is only %d bytes", len(seg))
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(seg[:len(seg)-1]); err != nil {
		t.Fatal(err)
	}

	tl := fastTail(t, path, 0)
	if rec, err := tl.tryNext(); err != nil || rec.Day != 100 {
		t.Fatalf("first segment: %+v, %v", rec, err)
	}
	const polls = 200
	held := retained(&tl.sc)
	allocs := testing.AllocsPerRun(polls, func() {
		if _, err := tl.tryNext(); err != errTailWait {
			t.Fatalf("poll over an incomplete frame: %v", err)
		}
	})
	t.Logf("%d polls: the buffer holds %d bytes, %.1f allocations a poll", polls, held, allocs)
	if grew := retained(&tl.sc); grew != held || allocs > 16 {
		t.Fatalf("%d polls over a %d-byte incomplete frame grew the buffer from %d to %d bytes and allocated %.1f times each",
			polls, len(seg)-1, held, grew, allocs)
	}
	if lag := tl.Lag(); lag != int64(len(seg)-1) {
		t.Fatalf("Lag = %d, want the %d bytes waiting", lag, len(seg)-1)
	}

	if _, err := f.Write(seg[len(seg)-1:]); err != nil {
		t.Fatal(err)
	}
	rec, err := tl.tryNext()
	if err != nil || rec.Day != 101 || len(rec.Measurements) != len(ms) {
		t.Fatalf("completed segment: day %s, %d measurements, %v", rec.Day, len(rec.Measurements), err)
	}
}

// TestTailerNextWithEndedContextNeverWaits: Next looks at the file before
// it looks at the context. With a context that has already ended it is a
// try — a segment that is there is delivered, one that is not (absent,
// torn, still arriving) fails at once with the context's error, however
// long the poll interval — which is how a reader drains the part of a
// journal it knows to exist without ever sleeping on the rest.
func TestTailerNextWithEndedContextNeverWaits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for i, d := range []string{"a.ru.", "b.ru."} {
		if err := j.AppendSweep(tailRec(int32(100+i), d)); err != nil {
			t.Fatal(err)
		}
	}
	end := fileSize(t, path)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{0, 0, 1, 0, 9, 9}); err != nil { // an append under way
		t.Fatal(err)
	}

	tl, err := OpenTail(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer tl.Close()
	tl.SetPoll(time.Hour)
	ended, cancel := context.WithCancel(context.Background())
	cancel()
	for day := simtime.Day(100); day < 102; day++ {
		if rec, err := tl.Next(ended); err != nil || rec.Day != day || len(rec.Measurements) != 1 {
			t.Fatalf("segment %s under an ended context: %+v, %v", day, rec, err)
		}
	}
	if tl.Offset() != end {
		t.Fatalf("offset %d after the two whole segments, want %d", tl.Offset(), end)
	}
	if rec, err := tl.Next(ended); err != context.Canceled {
		t.Fatalf("Next over an incomplete segment under an ended context: %+v, %v; want context.Canceled", rec, err)
	}
}
