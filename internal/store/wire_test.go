package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"strings"
	"testing"

	"whereru/internal/frame"
	"whereru/internal/simtime"
)

func batchFixture(day simtime.Day) []Measurement {
	return []Measurement{
		{Domain: "alpha.ru", Day: day, Config: Config{
			NSHosts:   []string{"ns2.alpha.ru", "ns1.alpha.ru"}, // unsorted on purpose
			NSAddrs:   []netip.Addr{netip.MustParseAddr("10.0.0.2"), netip.MustParseAddr("10.0.0.1")},
			ApexAddrs: []netip.Addr{netip.MustParseAddr("192.0.2.7")},
			MXHosts:   []string{"mx.alpha.ru"},
		}},
		{Domain: "beta.xn--p1ai", Day: day, Config: Config{Failed: true}},
		{Domain: "gamma.ru", Day: day, Config: Config{NSHosts: []string{"ns.hoster.de"}}},
	}
}

func TestMeasurementBatchRoundTrip(t *testing.T) {
	day := simtime.Date(2022, 2, 24)
	ms := batchFixture(day)
	b, err := EncodeMeasurementBatch(day, ms)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotDay, got, err := DecodeMeasurementBatch(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotDay != day {
		t.Errorf("day = %v, want %v", gotDay, day)
	}
	// The codec normalizes configs on the way in.
	want := make([]Measurement, len(ms))
	for i, m := range ms {
		m.Config = m.Config.Normalize()
		want[i] = m
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, want)
	}

	// Determinism: encoding the decoded batch reproduces the bytes.
	b2, err := EncodeMeasurementBatch(day, got)
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if string(b2) != string(b) {
		t.Errorf("re-encode is not byte-identical")
	}
}

func TestMeasurementBatchEmpty(t *testing.T) {
	day := simtime.Date(2022, 3, 1)
	b, err := EncodeMeasurementBatch(day, nil)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	gotDay, got, err := DecodeMeasurementBatch(b)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if gotDay != day || len(got) != 0 {
		t.Errorf("got day %v, %d measurements; want %v, 0", gotDay, len(got), day)
	}
}

func TestMeasurementBatchDayMismatch(t *testing.T) {
	day := simtime.Date(2022, 2, 24)
	ms := batchFixture(day)
	ms[1].Day = day + 1
	if _, err := EncodeMeasurementBatch(day, ms); err == nil {
		t.Fatal("encode accepted a measurement from another day")
	}
}

// TestMeasurementBatchHostileInput: truncations, bit flips, and trailing
// garbage must all surface as errors — never a panic, never a silent
// partial decode. The transport checksums frames, but the decoder is the
// last line of defense.
func TestMeasurementBatchHostileInput(t *testing.T) {
	day := simtime.Date(2022, 2, 24)
	good, err := EncodeMeasurementBatch(day, batchFixture(day))
	if err != nil {
		t.Fatalf("encode: %v", err)
	}

	// Every prefix of a valid batch is invalid (measurement counts no
	// longer match the bytes present).
	for n := 0; n < len(good); n++ {
		if _, _, err := DecodeMeasurementBatch(good[:n]); err == nil {
			t.Fatalf("decode accepted a %d-byte truncation of a %d-byte batch", n, len(good))
		}
	}

	// Trailing garbage is rejected.
	if _, _, err := DecodeMeasurementBatch(append(append([]byte{}, good...), 0x00)); err == nil {
		t.Error("decode accepted trailing garbage")
	}

	// An absurd count field must be rejected before allocation. The count
	// sits right after the day: day i32 | count u32.
	huge := append([]byte{}, good...)
	huge[4], huge[5], huge[6], huge[7] = 0xff, 0xff, 0xff, 0xff
	if _, _, err := DecodeMeasurementBatch(huge); err == nil {
		t.Error("decode accepted an absurd measurement count")
	}

	// An over-limit batch is rejected outright.
	if _, _, err := DecodeMeasurementBatch(make([]byte, MaxBatchBytes+1)); err == nil {
		t.Error("decode accepted an over-limit batch")
	}
}

// prefixChainBatch is a batch of n names, each the previous one plus a
// byte: a few bytes apiece on the wire, n²/2 bytes of names decoded.
func prefixChainBatch(day simtime.Day, n int) []byte {
	var e encoder
	e.I32(int32(day))
	e.Uvarint(1) // one empty set
	e.Uvarint(0)
	e.Uvarint(0)
	e.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.Uvarint(uint64(i)) // the whole previous name
		e.StrVar("a")
		e.Uvarint(0) // NS set
		e.Uvarint(0) // MX set
		e.Uvarint(0) // apex addrs
	}
	return e.Bytes()
}

// heavySetBatch is a batch of n measurements whose NS and MX set numbers
// both stand for the one set of hosts 40-byte hostnames.
func heavySetBatch(day simtime.Day, hosts, n int) []byte {
	var e encoder
	e.I32(int32(day))
	e.Uvarint(1)
	e.Uvarint(uint64(hosts))
	for i := 0; i < hosts; i++ {
		e.StrVar(fmt.Sprintf("ns%02d.%s.ru.", i, strings.Repeat("h", 32)))
	}
	e.Uvarint(0)
	e.Uvarint(uint64(n))
	for i := 0; i < n; i++ {
		e.Uvarint(0)
		e.StrVar(fmt.Sprintf("%04d", i))
		e.Uvarint(0)
		e.Uvarint(0)
		e.Uvarint(0)
	}
	return e.Bytes()
}

// TestMeasurementListBoundsExpansion: a name stands for at most 255 bytes
// and a list for at most maxExpansion times its own, so neither a chain of
// ever-longer names nor many numbers for one large set decodes to much
// more than its bytes — batch or journal segment alike — and the encoder
// refuses to write what the decoder would refuse to read.
func TestMeasurementListBoundsExpansion(t *testing.T) {
	day := simtime.Date(2022, 2, 24)
	if _, ms, err := DecodeMeasurementBatch(prefixChainBatch(day, maxNameBytes)); err != nil || len(ms[maxNameBytes-1].Domain) != maxNameBytes {
		t.Fatalf("a chain up to a %d-byte name: %v", maxNameBytes, err)
	}
	if _, _, err := DecodeMeasurementBatch(prefixChainBatch(day, maxNameBytes+1)); err == nil || !strings.Contains(err.Error(), "over 255") {
		t.Errorf("a chain past a %d-byte name decoded (%v)", maxNameBytes, err)
	}
	heavy := heavySetBatch(day, 50, 400)
	if _, _, err := DecodeMeasurementBatch(heavy); err == nil || !strings.Contains(err.Error(), "weighs over") {
		t.Errorf("400 numbers for one 50-host set decoded (%v)", err)
	}
	if _, _, err := DecodeMeasurementBatch(heavySetBatch(day, 50, 20)); err != nil {
		t.Errorf("20 numbers for one 50-host set: %v", err)
	}

	// The same list as a journal segment is damage: the scan stops there.
	var seg frame.Writer
	seg.Begin()
	seg.U8(segSweep)
	seg.I32(int32(day))
	seg.Raw(make([]byte, 6*4)) // stats
	seg.Raw(heavy[4:])
	b, err := seg.Finish(frame.MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	journal := append(binary.BigEndian.AppendUint16([]byte(journalMagic), journalVersion), b...)
	replay, err := DecodeJournal(bytes.NewReader(journal))
	if err != nil || len(replay.Sweeps) != 0 || replay.TornBytes != int64(len(b)) {
		t.Errorf("journal with a heavy segment: %v, %+v", err, replay)
	}

	// The encoder holds itself to both bounds.
	ms, long := make([]Measurement, 400), strings.Repeat("a", maxNameBytes+1)
	if _, err := EncodeMeasurementBatch(day, []Measurement{{Domain: long, Day: day}}); err == nil {
		t.Error("encoded a 256-byte name")
	}
	_, set, _ := DecodeMeasurementBatch(heavySetBatch(day, 50, 1))
	for i := range ms {
		ms[i] = Measurement{Domain: fmt.Sprintf("%04d", i), Day: day, Config: set[0].Config}
	}
	if _, err := EncodeMeasurementBatch(day, ms); !errors.Is(err, errHeavyList) {
		t.Errorf("encoding 400 numbers for one 50-host set: %v", err)
	}
}
