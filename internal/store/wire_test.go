package store

import (
	"net/netip"
	"reflect"
	"testing"

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
