package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
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

	// Legacy v1 stream: 20 bytes claiming a billion domains.
	v1 := []byte("WRST\x00\x01")
	v1 = binary.BigEndian.AppendUint32(v1, 0)             // no sweeps
	v1 = binary.BigEndian.AppendUint32(v1, 1_000_000_000) // domains
	v1 = append(v1, 0, 3, 'x', '.', 'z')                  // one tiny name, then EOF
	if _, err := Read(bytes.NewReader(v1)); err == nil || !strings.Contains(err.Error(), "corrupt") {
		t.Fatalf("billion-domain v1 file: err = %v", err)
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

// legacyEncode writes the unframed v1/v2 stream format for compatibility
// fixtures (the current encoder only emits v3).
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

// TestLegacyFormatsStillReadable pins v1/v2 compatibility: a handcrafted
// legacy stream decodes to the same store contents, and re-encoding it
// produces a valid v3 file.
func TestLegacyFormatsStillReadable(t *testing.T) {
	for _, v := range []int{1, 2} {
		// v1 predates MX collection, so its fixture carries none.
		s := buildStoreOpts(6, v >= 2)
		raw := legacyEncode(v, s)
		back, err := Read(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("v%d: Read: %v", v, err)
		}
		if !reflect.DeepEqual(s.Sweeps(), back.Sweeps()) {
			t.Fatalf("v%d: sweeps differ", v)
		}
		if !reflect.DeepEqual(s.Domains(), back.Domains()) {
			t.Fatalf("v%d: domains differ", v)
		}
		for _, d := range s.Domains() {
			if !reflect.DeepEqual(s.History(d), back.History(d)) {
				t.Fatalf("v%d: history differs for %s", v, d)
			}
		}
		// Upgrade path: legacy in, v3 out.
		var buf bytes.Buffer
		if _, err := back.WriteTo(&buf); err != nil {
			t.Fatalf("v%d: re-encode: %v", v, err)
		}
		again, err := Read(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("v%d: re-read: %v", v, err)
		}
		storesEqual(t, back, again)

		// A truncated legacy stream recovers its complete domains.
		torn := raw[:len(raw)*2/3]
		rec, recovery, err := ReadRecover(bytes.NewReader(torn))
		if err != nil {
			t.Fatalf("v%d: ReadRecover(torn): %v", v, err)
		}
		if !recovery.Damaged {
			t.Fatalf("v%d: torn legacy stream not flagged", v)
		}
		for _, d := range rec.Domains() {
			if !reflect.DeepEqual(rec.History(d), s.History(d)) {
				t.Fatalf("v%d: recovered legacy history differs for %s", v, d)
			}
		}
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
