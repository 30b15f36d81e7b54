package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"net/netip"
	"os"
	"path/filepath"
	"testing"

	"whereru/internal/frame"
	"whereru/internal/iofault"
	"whereru/internal/simtime"
)

// These tests hold the streaming replay (scanJournal with a store, under
// ReplayJournalFile and ResumeJournalFS: segments applied to the store
// straight from the scanner's buffer) to the materialising
// one (DecodeJournal, then the records applied one Add at a time — what
// openintel.ApplyJournaled does; openintel's checkpoint tests make the
// same comparison through the real function).

// applyDecoded applies a decoded replay's records the way a live run and
// openintel.ApplyJournaled do.
func applyDecoded(st *Store, replay *JournalReplay) {
	for _, rec := range replay.Sweeps {
		if rec.Missing {
			st.MarkMissingSweep(rec.Day)
			continue
		}
		st.BeginSweep(rec.Day)
		for _, m := range rec.Measurements {
			st.Add(m)
		}
	}
}

func storeBytes(t testing.TB, st *Store) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := st.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertStreamingMatchesDecoded is the differential: one journal image,
// both replays, everything observable equal.
func assertStreamingMatchesDecoded(t testing.TB, data []byte) {
	t.Helper()
	decoded, derr := DecodeJournal(bytes.NewReader(data))
	a := New()
	streamed, serr := scanJournal(bytes.NewReader(data), a, false)
	if (derr == nil) != (serr == nil) {
		t.Fatalf("header verdicts differ: decode %v, streaming %v", derr, serr)
	}
	if derr != nil {
		if a.Generation() != 0 {
			t.Fatal("a refused journal touched the store")
		}
		return
	}
	b := New()
	applyDecoded(b, decoded)

	if streamed.GoodBytes != decoded.GoodBytes || streamed.TornBytes != decoded.TornBytes || streamed.Version != decoded.Version {
		t.Fatalf("accounting: streaming good=%d torn=%d, decoded good=%d torn=%d",
			streamed.GoodBytes, streamed.TornBytes, decoded.GoodBytes, decoded.TornBytes)
	}
	if streamed.GoodBytes+streamed.TornBytes != int64(len(data)) {
		t.Fatalf("good %d + torn %d != %d input bytes", streamed.GoodBytes, streamed.TornBytes, len(data))
	}
	if len(streamed.Sweeps) != len(decoded.Sweeps) {
		t.Fatalf("streaming saw %d segments, decode %d", len(streamed.Sweeps), len(decoded.Sweeps))
	}
	for i, rec := range streamed.Sweeps {
		want := decoded.Sweeps[i]
		if rec.Day != want.Day || rec.Missing != want.Missing || rec.Stats != want.Stats {
			t.Fatalf("segment %d: streaming %+v, decoded day=%s missing=%v stats=%+v", i, rec, want.Day, want.Missing, want.Stats)
		}
		if rec.Measurements != nil {
			t.Fatalf("segment %d: streaming replay kept %d measurements", i, len(rec.Measurements))
		}
	}
	if ga, gb := a.Generation(), b.Generation(); ga != gb {
		t.Fatalf("generation: streaming %d, decoded %d", ga, gb)
	}
	if sa, sb := a.Stats(), b.Stats(); sa != sb {
		t.Fatalf("stats: streaming %+v, decoded %+v", sa, sb)
	}
	if !bytes.Equal(storeBytes(t, a), storeBytes(t, b)) {
		t.Fatal("streaming replay and decode+apply left different stores")
	}
	// Validate-only is the same scan with no store.
	if v, err := scanJournal(bytes.NewReader(data), nil, false); err != nil || v.GoodBytes != decoded.GoodBytes || v.TornBytes != decoded.TornBytes || len(v.Sweeps) != len(decoded.Sweeps) {
		t.Fatalf("validate-only scan: %+v, %v", v, err)
	}
}

// rawJournal assembles a journal image by hand — header, then each payload
// framed — so a test can write what AppendSweep never would.
func rawJournal(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	out := binary.BigEndian.AppendUint16([]byte(journalMagic), journalVersion)
	for _, p := range payloads {
		var err error
		if out, err = frame.Append(out, p, frame.MaxPayload); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// rawSweep encodes a sweep segment payload exactly as given: no sorting
// by domain, no normalising of the configs — a foreign writer's journal.
func rawSweep(day simtime.Day, ms ...Measurement) []byte {
	var e encoder
	e.U8(segSweep)
	e.I32(int32(day))
	for i := 0; i < 4; i++ {
		e.Uint32(len(ms)+i, "", "sweep stat")
	}
	rawList(&e, ms)
	return e.Bytes()
}

// rawList writes the measurement list layout with nothing sorted or
// shared: measurement i spells its own NS set, number 2i, and MX set,
// number 2i+1, as given, and its whole name.
func rawList(e *encoder, ms []Measurement) {
	e.Uvarint(uint64(2 * len(ms)))
	for _, m := range ms {
		rawHosts(e, m.Config.NSHosts)
		e.addrsVar(m.Config.NSAddrs)
		rawHosts(e, m.Config.MXHosts)
		e.addrsVar(nil)
	}
	e.Uvarint(uint64(len(ms)))
	for i, m := range ms {
		e.Uvarint(0)
		e.StrVar(m.Domain)
		ref := uint64(2*i) << 1
		if m.Config.Failed {
			ref |= 1
		}
		e.Uvarint(ref)
		e.Uvarint(uint64(2*i + 1))
		e.addrsVar(m.Config.ApexAddrs)
	}
}

func rawHosts(e *encoder, hosts []string) {
	e.Uvarint(uint64(len(hosts)))
	for _, h := range hosts {
		e.StrVar(h)
	}
}

func rawMissing(day simtime.Day) []byte {
	var e encoder
	e.U8(segMissing)
	e.I32(int32(day))
	return e.Bytes()
}

// randomJournal writes nSweeps segments through the real writer: churning
// domains, repeated configs, a missing day.
func randomJournal(t testing.TB, seed int64, nSweeps, nDomains int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "rand.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < nSweeps; i++ {
		rec := JournalSweep{Day: simtime.Day(300 + 3*i), Stats: JournalStats{Domains: nDomains, Failed: i, NXDomain: 2 * i}}
		if i == nSweeps/2 {
			rec = JournalSweep{Day: rec.Day, Missing: true}
		}
		for d := 0; d < nDomains && !rec.Missing; d++ {
			if rng.Intn(4) == 0 {
				continue
			}
			rec.Measurements = append(rec.Measurements, Measurement{Domain: fmt.Sprintf("d%03d.ru.", d), Day: rec.Day, Config: randConfig(rng)})
		}
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

func TestStreamingReplayMatchesDecoded(t *testing.T) {
	unsorted := Config{
		NSHosts:   []string{"ns2.z.ru.", "ns1.z.ru.", "ns2.z.ru.", "ns0.a.ru."},
		NSAddrs:   addrs4(11, 0, 0, 9, 11, 0, 0, 1, 11, 0, 0, 5),
		ApexAddrs: addrs4(11, 9, 9, 9, 11, 1, 1, 1),
		MXHosts:   []string{"mx2.z.ru.", "mx1.z.ru."},
	}
	sorted := cloneConfig(unsorted).Normalize()
	other := cfg([]string{"ns.o.ru."}, []string{"11.0.0.1"}, nil)
	valid := randomJournal(t, 3, 9, 30)
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x20

	cases := map[string][]byte{
		"valid":       valid,
		"bit flip":    flipped,
		"header only": rawJournal(t),
		"bad magic":   []byte("XXXX\x00\x01"),
		"garbage tail": append(append([]byte(nil), valid...),
			0xff, 0xff, 0xff, 0xff, 1, 2, 3),
		"empty sweep": rawJournal(t, rawSweep(10), rawMissing(11), rawSweep(12)),
		// A foreign journal: host and address lists out of order, domains
		// out of order. The sorted spelling of the same config one sweep
		// later must extend the epoch, not open a second one.
		"unsorted lists": rawJournal(t,
			rawSweep(10, Measurement{Domain: "z.ru.", Config: unsorted}, Measurement{Domain: "a.ru.", Config: other}),
			rawSweep(11, Measurement{Domain: "a.ru.", Config: unsorted}, Measurement{Domain: "z.ru.", Config: sorted})),
		// The same domain twice in one segment: same config (extends
		// itself) and a different one (a second epoch on the same day).
		"duplicate domain": rawJournal(t,
			rawSweep(10, Measurement{Domain: "a.ru.", Config: other}, Measurement{Domain: "a.ru.", Config: other},
				Measurement{Domain: "b.ru.", Config: other}, Measurement{Domain: "a.ru.", Config: sorted}),
			rawSweep(11, Measurement{Domain: "a.ru.", Config: sorted})),
		"unknown kind":        rawJournal(t, rawSweep(10, Measurement{Domain: "a.ru.", Config: other}), []byte{7, 0, 0, 0, 11}),
		"trailing bytes":      rawJournal(t, append(rawSweep(10, Measurement{Domain: "a.ru.", Config: other}), 0)),
		"days out of order":   rawJournal(t, rawSweep(20, Measurement{Domain: "a.ru.", Config: other}), rawSweep(10, Measurement{Domain: "a.ru.", Config: sorted})),
		"missing twice":       rawJournal(t, rawMissing(10), rawMissing(10), rawSweep(10)),
		"failed measurements": rawJournal(t, rawSweep(10, Measurement{Domain: "a.ru.", Config: Config{Failed: true}}, Measurement{Domain: "b.ru.", Config: Config{}})),
	}
	for name, data := range cases {
		t.Run(name, func(t *testing.T) { assertStreamingMatchesDecoded(t, data) })
	}
	// Every truncation of a small journal: each cut lands in a header, a
	// length, a payload or a checksum.
	small := randomJournal(t, 5, 4, 3)
	for cut := 0; cut <= len(small); cut++ {
		assertStreamingMatchesDecoded(t, small[:cut])
	}

	// The unsorted case really did normalise: one epoch for z.ru.
	st := New()
	if _, err := scanJournal(bytes.NewReader(cases["unsorted lists"]), st, false); err != nil {
		t.Fatal(err)
	}
	if h := st.History("z.ru."); len(h) != 1 || !h[0].Config.Equal(sorted) {
		t.Fatalf("z.ru. history after a foreign journal: %+v", h)
	}
}

// TestNoHalfAppliedSegment: a segment whose checksum holds but whose
// payload stops decoding halfway — after measurements that, on their own,
// are perfectly good — must leave no trace: not a row, not a generation.
// Both replays validate the whole segment before applying any of it.
func TestNoHalfAppliedSegment(t *testing.T) {
	c := cfg([]string{"ns.a.ru."}, []string{"11.0.0.1"}, []string{"11.0.1.1"})
	c2 := cfg([]string{"ns.b.ru."}, []string{"11.0.0.2"}, nil)
	good := []([]byte){
		rawSweep(10, Measurement{Domain: "a.ru.", Config: c}, Measurement{Domain: "b.ru.", Config: c}),
		rawSweep(11, Measurement{Domain: "a.ru.", Config: c}, Measurement{Domain: "b.ru.", Config: c2}),
	}
	// Three measurements announced and two encoded in full, then the
	// payload ends inside the third.
	bad := rawSweep(12, Measurement{Domain: "a.ru.", Config: c2}, Measurement{Domain: "new.ru.", Config: c}, Measurement{Domain: "c.ru.", Config: c})
	bad = bad[:len(bad)-5]

	two := rawJournal(t, good...)
	three := rawJournal(t, append(good, bad)...)
	want := New()
	if _, err := scanJournal(bytes.NewReader(two), want, false); err != nil {
		t.Fatal(err)
	}

	check := func(t *testing.T, st *Store, replay *JournalReplay) {
		t.Helper()
		if len(replay.Sweeps) != 2 || replay.GoodBytes != int64(len(two)) || replay.GoodBytes+replay.TornBytes != int64(len(three)) {
			t.Fatalf("sweeps=%d good=%d torn=%d, want 2, %d, %d", len(replay.Sweeps), replay.GoodBytes, replay.TornBytes, len(two), len(three)-len(two))
		}
		if st.Generation() != want.Generation() {
			t.Fatalf("generation %d, want %d (as after the two good segments)", st.Generation(), want.Generation())
		}
		if !bytes.Equal(storeBytes(t, st), storeBytes(t, want)) {
			t.Fatal("the undecodable segment changed the store")
		}
	}
	t.Run("streaming", func(t *testing.T) {
		st := New()
		replay, err := scanJournal(bytes.NewReader(three), st, false)
		if err != nil {
			t.Fatal(err)
		}
		check(t, st, replay)
	})
	t.Run("resume", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.wrjl")
		if err := os.WriteFile(path, three, 0o644); err != nil {
			t.Fatal(err)
		}
		st := New()
		j, replay, err := ResumeJournalFS(iofault.OS, path, st)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		check(t, st, replay)
		if got := fileSize(t, path); got != int64(len(two)) {
			t.Fatalf("file is %d bytes after the resume, want the %d-byte valid prefix", got, len(two))
		}
	})
	t.Run("open then apply", func(t *testing.T) {
		path := filepath.Join(t.TempDir(), "j.wrjl")
		if err := os.WriteFile(path, three, 0o644); err != nil {
			t.Fatal(err)
		}
		j, opened, err := ResumeJournalFS(iofault.OS, path, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		decoded, err := VerifyJournal(path) // what the open left of the file
		if err != nil {
			t.Fatal(err)
		}
		st := New()
		applyDecoded(st, decoded)
		check(t, st, opened)
	})
}

// allocJournal is a journal of nSweeps segments over the same nDomains
// domains and a few dozen configs: after the first segment a replay meets
// nothing it has not seen.
func allocJournal(t testing.TB, nSweeps, nDomains int) []byte {
	t.Helper()
	var payloads [][]byte
	for i := 0; i < nSweeps; i++ {
		ms := make([]Measurement, nDomains)
		for d := range ms {
			p := d % 40
			ms[d] = Measurement{Domain: fmt.Sprintf("domain-%05d.ru.", d), Config: cfg(
				[]string{fmt.Sprintf("ns1.prov%d.ru.", p), fmt.Sprintf("ns2.prov%d.ru.", p)},
				[]string{fmt.Sprintf("11.0.%d.1", p), fmt.Sprintf("11.0.%d.2", p)}, []string{fmt.Sprintf("11.1.%d.1", p)})}
		}
		payloads = append(payloads, rawSweep(simtime.Day(100+i), ms...))
	}
	return rawJournal(t, payloads...)
}

// offerReader is a reader that records the largest buffer a read offered
// it: the memory its caller had grown to hold what arrives.
type offerReader struct {
	io.Reader
	most int
}

func (r *offerReader) Read(p []byte) (int, error) {
	r.most = max(r.most, len(p))
	return r.Reader.Read(p)
}

// replayAllocs replays data into a fresh store: how many times a replay
// allocates, and the largest buffer it read the journal into.
func replayAllocs(t *testing.T, data []byte) (allocs float64, buffer int) {
	t.Helper()
	allocs = testing.AllocsPerRun(3, func() {
		r := &offerReader{Reader: bytes.NewReader(data)}
		replay, err := scanJournal(r, New(), false)
		if err != nil || replay.Torn() {
			t.Fatalf("replay: %+v, %v", replay, err)
		}
		buffer = r.most
	})
	return allocs, buffer
}

// TestResumeAllocsPerSegment pins the replay's memory model: O(largest
// segment) + store. A replay reads the journal into a buffer the size of
// one segment and allocates fewer times than the journal holds
// measurements (the materialising decode allocated several times per
// measurement), and segments that repeat known domains and configs add
// nothing — four times the journal costs what one does, give or take the
// replay's own record list. Counted per run and read off the buffer, not
// off a process-wide byte counter that every other test moves too.
func TestResumeAllocsPerSegment(t *testing.T) {
	const k, domains = 12, 2000
	short, long := allocJournal(t, k, domains), allocJournal(t, 4*k, domains)
	segment := (len(short) - journalHdrLen) / k
	base, buf := replayAllocs(t, short)
	if base >= k*domains || buf > 2*segment {
		t.Fatalf("replaying %d segments of %d bytes allocated %.0f times, into a %d-byte buffer", k, segment, base, buf)
	}
	if more, buf := replayAllocs(t, long); more > base+16 || buf > 2*segment {
		t.Fatalf("%d segments allocated %.0f times, %d segments %.0f times into a %d-byte buffer: replay memory grows with the journal",
			k, base, 4*k, more, buf)
	}

	// Steady state in the apply sink itself: a verified segment of known
	// domains and configs applies without a single allocation.
	var sc journalScanner
	rd := bytes.NewReader(short[journalHdrLen:])
	st := New()
	if _, err := sc.next(rd, frame.MaxPayload, false); err != nil {
		t.Fatal(err)
	}
	sc.apply(st)
	if n := testing.AllocsPerRun(5, func() { sc.apply(st) }); n != 0 {
		t.Fatalf("applying a %d-measurement segment the store has seen: %v allocations", domains, n)
	}
}

// addrs4 builds an address list from groups of four octets.
func addrs4(octets ...byte) []netip.Addr {
	out := make([]netip.Addr, 0, len(octets)/4)
	for i := 0; i+4 <= len(octets); i += 4 {
		out = append(out, netip.AddrFrom4([4]byte(octets[i:i+4])))
	}
	return out
}
