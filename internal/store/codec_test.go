package store

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"whereru/internal/frame"
	"whereru/internal/simtime"
)

// buildStore populates a store with nDomains domains over a handful of
// sweeps, including config changes, a failed epoch, and missing days.
func buildStore(nDomains int) *Store { return buildStoreOpts(nDomains, true) }

func buildStoreOpts(nDomains int, withMX bool) *Store {
	s := New()
	for i := 0; i < 8; i++ {
		day := simtime.Day(500 + i*7)
		s.BeginSweep(day)
		for j := 0; j < nDomains; j++ {
			c := cfg(
				[]string{fmt.Sprintf("ns%d.prov%d.ru.", j%3, (j+i/4)%4)},
				[]string{fmt.Sprintf("11.%d.0.%d", j%4, j%3+1)},
				[]string{fmt.Sprintf("11.%d.1.%d", j%4, j%3+1)},
			)
			if withMX {
				c.MXHosts = []string{fmt.Sprintf("mx.prov%d.ru.", j%4)}
			}
			if j == 3 && i == 5 {
				c = Config{Failed: true}
			}
			s.Add(Measurement{Domain: fmt.Sprintf("dom%03d.ru.", j), Day: day, Config: c})
		}
	}
	s.MarkMissingSweep(521)
	s.MarkMissingSweep(507)
	return s
}

// epochView is a test-only materialized epoch; epochsOf reads a domain's
// rows out of the columns for fixtures that need raw epoch boundaries.
type epochView struct {
	from, lastSeen simtime.Day
	config         Config
}

func epochsOf(s *Store, name string) []epochView {
	s.mu.RLock()
	defer s.mu.RUnlock()
	d, ok := s.byName[name]
	if !ok {
		return nil
	}
	o, n := s.off[d], s.cnt[d]
	out := make([]epochView, 0, n)
	for j := uint32(0); j < n; j++ {
		out = append(out, epochView{
			from:     s.epochFrom[o+j],
			lastSeen: s.epochLast[o+j],
			config:   s.intern.config(s.epochCfg[o+j]),
		})
	}
	return out
}

func storesEqual(t *testing.T, a, b *Store) {
	t.Helper()
	if !reflect.DeepEqual(a.Sweeps(), b.Sweeps()) {
		t.Fatalf("sweeps differ: %v vs %v", a.Sweeps(), b.Sweeps())
	}
	if !reflect.DeepEqual(a.MissingSweeps(), b.MissingSweeps()) {
		t.Fatalf("missing sweeps differ: %v vs %v", a.MissingSweeps(), b.MissingSweeps())
	}
	if !reflect.DeepEqual(a.Domains(), b.Domains()) {
		t.Fatalf("domains differ")
	}
	for _, d := range a.Domains() {
		if !reflect.DeepEqual(a.History(d), b.History(d)) {
			t.Fatalf("history differs for %s", d)
		}
	}
}

func TestCodecV3RoundTripWithMissingSweeps(t *testing.T) {
	s := buildStore(12)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	back, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	storesEqual(t, s, back)
	if got := back.MissingSweeps(); len(got) != 2 || got[0] != 507 || got[1] != 521 {
		t.Fatalf("MissingSweeps = %v", got)
	}
	// Naive-record accounting must survive the round trip (it feeds the
	// compression ablation).
	if s.Stats().NaiveRecords != back.Stats().NaiveRecords {
		t.Fatalf("naive records %d != %d", s.Stats().NaiveRecords, back.Stats().NaiveRecords)
	}
}

// TestReadRecoverTruncation cuts a valid v3 file at every byte length and
// asserts the tolerant decoder never panics, never errors past the
// header, and recovers exactly the domains whose sections survived.
func TestReadRecoverTruncation(t *testing.T) {
	s := buildStore(10)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	wantDomains := s.Domains()
	for cut := 0; cut <= len(full); cut++ {
		torn := full[:cut]
		back, rec, err := ReadRecover(bytes.NewReader(torn))
		if cut < 6 {
			if err == nil {
				t.Fatalf("cut=%d: torn header accepted", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut=%d: ReadRecover error: %v", cut, err)
		}
		if cut < len(full) && !rec.Damaged {
			t.Fatalf("cut=%d: truncation not flagged as damage", cut)
		}
		if cut == len(full) && rec.Damaged {
			t.Fatalf("intact file flagged damaged: %s", rec.Reason)
		}
		if rec.GoodBytes > int64(cut) {
			t.Fatalf("cut=%d: GoodBytes %d exceeds input", cut, rec.GoodBytes)
		}
		// Recovered domains must be an exact prefix of the (sorted) encoded
		// order, each with its full history intact.
		got := back.Domains()
		if len(got) != rec.Domains {
			t.Fatalf("cut=%d: %d domains recovered, Recovery says %d", cut, len(got), rec.Domains)
		}
		if len(got) > len(wantDomains) {
			t.Fatalf("cut=%d: recovered more domains than written", cut)
		}
		for i, d := range got {
			if d != wantDomains[i] {
				t.Fatalf("cut=%d: recovered %q at %d, want %q", cut, d, i, wantDomains[i])
			}
			if !reflect.DeepEqual(back.History(d), s.History(d)) {
				t.Fatalf("cut=%d: recovered history for %s differs", cut, d)
			}
		}
	}
}

// TestReadRecoverBitFlip flips one byte inside a domain section: strict
// Read must reject the file, ReadRecover must salvage the domains before
// the damage.
func TestReadRecoverBitFlip(t *testing.T) {
	s := buildStore(10)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	// Flip a byte about 70% in: past the header sections, inside some
	// domain record's payload.
	flipped := append([]byte(nil), full...)
	flipped[len(flipped)*7/10] ^= 0x40
	if _, err := Read(bytes.NewReader(flipped)); err == nil {
		t.Fatal("strict Read accepted a bit-flipped file")
	} else if !strings.Contains(err.Error(), "store: corrupt:") {
		t.Fatalf("error %q lacks store: corrupt: prefix", err)
	}
	back, rec, err := ReadRecover(bytes.NewReader(flipped))
	if err != nil {
		t.Fatalf("ReadRecover: %v", err)
	}
	if !rec.Damaged || rec.Reason == "" {
		t.Fatal("bit flip not reported as damage")
	}
	if rec.Domains >= rec.ExpectedDomains {
		t.Fatalf("recovered %d of %d domains despite damage", rec.Domains, rec.ExpectedDomains)
	}
	for _, d := range back.Domains() {
		if !reflect.DeepEqual(back.History(d), s.History(d)) {
			t.Fatalf("salvaged history for %s differs", d)
		}
	}
}

// TestReadRejectsHugeCounts builds inputs whose count fields promise far
// more data than the file holds: the decoder must fail with a corrupt
// error without attempting the implied allocation.
func TestReadRejectsHugeCounts(t *testing.T) {
	section := func(payload []byte) []byte {
		out, err := frame.Append(nil, payload, maxDomainRecordBytes)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	header := append([]byte(magic), 0, version)

	// A sweeps section claiming a billion days in a 4-byte payload.
	huge := append([]byte(nil), header...)
	huge = append(huge, section(binary.BigEndian.AppendUint32(nil, 1_000_000_000))...)
	if _, err := Read(bytes.NewReader(huge)); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("billion-sweep file: err = %v", err)
	}

	// A domain record claiming a billion epochs.
	var e encoder
	e.Str16("x.ru.", "", "domain name")
	e.Count32(1_000_000_000, "x.ru.", "epoch")
	emptyDays := binary.BigEndian.AppendUint32(nil, 0)
	rec := append([]byte(nil), header...)
	rec = append(rec, section(emptyDays)...)                             // no sweeps
	rec = append(rec, section(emptyDays)...)                             // no missing days
	rec = append(rec, section(binary.BigEndian.AppendUint32(nil, 1))...) // domain count
	rec = append(rec, section(e.Bytes())...)                             // the hostile record
	if _, err := Read(bytes.NewReader(rec)); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("billion-epoch file: err = %v", err)
	}
}

func TestWriteToRejectsOverflow(t *testing.T) {
	hosts := make([]string, 70000)
	for i := range hosts {
		hosts[i] = fmt.Sprintf("ns%d.ru.", i)
	}
	s := New()
	s.Add(Measurement{Domain: "big.ru.", Day: 1, Config: Config{NSHosts: hosts}})
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err == nil {
		t.Fatal("70k NS hosts silently truncated to u16")
	} else if !strings.Contains(err.Error(), "overflows u16") {
		t.Fatalf("err = %v, want u16 overflow", err)
	}
}

// legacyEncode writes the unframed v1/v2 stream format: what a reader must
// refuse by name (the current encoder only emits v3).
func legacyEncode(v int, s *Store) []byte {
	out := []byte(magic)
	out = append(out, 0, byte(v))
	sweeps := s.Sweeps()
	out = binary.BigEndian.AppendUint32(out, uint32(len(sweeps)))
	for _, d := range sweeps {
		out = binary.BigEndian.AppendUint32(out, uint32(int32(d)))
	}
	doms := s.Domains()
	out = binary.BigEndian.AppendUint32(out, uint32(len(doms)))
	str := func(x string) {
		out = binary.BigEndian.AppendUint16(out, uint16(len(x)))
		out = append(out, x...)
	}
	for _, name := range doms {
		str(name)
		eps := epochsOf(s, name)
		out = binary.BigEndian.AppendUint32(out, uint32(len(eps)))
		for _, ep := range eps {
			out = binary.BigEndian.AppendUint32(out, uint32(int32(ep.from)))
			out = binary.BigEndian.AppendUint32(out, uint32(int32(ep.lastSeen)))
			if ep.config.Failed {
				out = append(out, 1)
			} else {
				out = append(out, 0)
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(ep.config.NSHosts)))
			for _, hst := range ep.config.NSHosts {
				str(hst)
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(ep.config.NSAddrs)))
			for _, a := range ep.config.NSAddrs {
				b := a.As4()
				out = append(out, b[:]...)
			}
			out = binary.BigEndian.AppendUint16(out, uint16(len(ep.config.ApexAddrs)))
			for _, a := range ep.config.ApexAddrs {
				b := a.As4()
				out = append(out, b[:]...)
			}
			if v >= 2 {
				out = binary.BigEndian.AppendUint16(out, uint16(len(ep.config.MXHosts)))
				for _, hst := range ep.config.MXHosts {
					str(hst)
				}
			}
		}
	}
	return out
}

// TestOldFormatVersionsRefused pins the one rule for old on-disk versions:
// a reader reads the current version and refuses older ones by name,
// saying what to do with them, and touches nothing. Store files v1 and v2
// go back to an earlier build to be saved as v3; a v1 or v2 journal is
// finished or resumed by the build that wrote it.
func TestOldFormatVersionsRefused(t *testing.T) {
	refused := func(t *testing.T, err error, what string, v int, remedy string) {
		t.Helper()
		want := fmt.Sprintf("store: %s version %d refused", what, v)
		if err == nil || !strings.Contains(err.Error(), want) || !strings.Contains(err.Error(), remedy) {
			t.Fatalf("err = %v, want %q ... %q", err, want, remedy)
		}
	}

	// The current journal version is read, and what it holds journals
	// back to the same bytes.
	cur := goldenFile(t, "journal.bin")
	replay, err := DecodeJournal(bytes.NewReader(cur))
	if err != nil || replay.Torn() {
		t.Fatalf("current journal: %v, torn %d", err, replay.TornBytes)
	}
	again := filepath.Join(t.TempDir(), "again.wrjl")
	j, err := CreateJournal(again)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range replay.Sweeps {
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	if got, _ := os.ReadFile(again); !bytes.Equal(got, cur) {
		t.Fatal("the current journal does not journal back to its own bytes")
	}

	for _, v := range []int{1, 2} {
		raw := legacyEncode(v, buildStoreOpts(6, v >= 2))
		_, err := Read(bytes.NewReader(raw))
		refused(t, err, "file", v, "earlier build")
		s, rec, err := ReadRecover(bytes.NewReader(raw))
		refused(t, err, "file", v, "earlier build")
		if s != nil || rec != nil {
			t.Fatalf("v%d: the tolerant reader salvaged %v from a refused file", v, rec)
		}
	}

	const remedy = "finish or resume it with the build that wrote it"
	for v, name := range map[int]string{1: "journal-v1.bin", 2: "journal-v2.bin"} {
		old := goldenFile(t, name)
		_, err = DecodeJournal(bytes.NewReader(old))
		refused(t, err, "journal", v, remedy)
		path := filepath.Join(t.TempDir(), "old.wrjl")
		if err := os.WriteFile(path, old, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = ReplayJournalFile(path, New())
		refused(t, err, "journal", v, remedy)
		_, _, err = OpenJournal(path) // would truncate a torn tail, and must not touch this
		refused(t, err, "journal", v, remedy)
		tl, err := OpenTail(path, 0)
		if err == nil {
			_, err = tl.Next(context.Background())
			tl.Close()
		}
		refused(t, err, "journal", v, remedy)
		if got, _ := os.ReadFile(path); !bytes.Equal(got, old) {
			t.Fatalf("refusing a v%d journal changed the file", v)
		}
	}

	// A version from the future is unsupported, not refused.
	future := append([]byte(journalMagic), 0, journalVersion+1)
	if _, err := DecodeJournal(bytes.NewReader(future)); err == nil || !strings.Contains(err.Error(), "unsupported") {
		t.Fatalf("journal from a newer build: %v", err)
	}
}

func TestMarkMissingSweep(t *testing.T) {
	s := New()
	for _, d := range []simtime.Day{30, 10, 20, 10, 30} {
		s.MarkMissingSweep(d)
	}
	got := s.MissingSweeps()
	if !reflect.DeepEqual(got, []simtime.Day{10, 20, 30}) {
		t.Fatalf("MissingSweeps = %v", got)
	}
	// The returned slice is immutable: later marks build a fresh slice
	// (copy-on-write) instead of mutating the one already handed out.
	s.MarkMissingSweep(5)
	if !reflect.DeepEqual(got, []simtime.Day{10, 20, 30}) {
		t.Fatalf("earlier snapshot mutated by MarkMissingSweep: %v", got)
	}
	if now := s.MissingSweeps(); !reflect.DeepEqual(now, []simtime.Day{5, 10, 20, 30}) {
		t.Fatalf("MissingSweeps after new mark = %v", now)
	}
}
