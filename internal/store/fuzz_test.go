package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeedStore returns a valid v3 encoding and the v2 and v1 streams a
// reader must refuse, so the fuzzer starts from structurally meaningful
// corpora.
func fuzzSeedStore() ([]byte, []byte, []byte) {
	s := buildStore(4)
	var v3 bytes.Buffer
	if _, err := s.WriteTo(&v3); err != nil {
		panic(err)
	}
	v2 := legacyEncode(2, s)
	v1 := legacyEncode(1, buildStoreOpts(3, false))
	return v3.Bytes(), v2, v1
}

// FuzzStoreRead asserts the decoders never panic or over-allocate on
// arbitrary input, that both refuse any version but the current one, and
// that anything the strict decoder accepts round-trips through the v3
// encoder unchanged.
func FuzzStoreRead(f *testing.F) {
	v3, v2, v1 := fuzzSeedStore()
	f.Add(v3)
	f.Add(v2)
	f.Add(v1)
	// Truncations and bit flips of the valid encodings.
	for _, seed := range [][]byte{v3, v2, v1} {
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-3])
		flipped := append([]byte(nil), seed...)
		flipped[len(flipped)/3] ^= 0x10
		f.Add(flipped)
	}
	f.Add([]byte("WRST"))
	f.Add([]byte("WRST\x00\x03\x00\x00\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if len(data) >= 6 && string(data[:4]) == magic && binary.BigEndian.Uint16(data[4:]) != version {
			if _, _, rerr := ReadRecover(bytes.NewReader(data)); err == nil || rerr == nil {
				t.Fatalf("version %d read: strict %v, tolerant %v", binary.BigEndian.Uint16(data[4:]), err, rerr)
			}
		}
		if err != nil {
			if s != nil {
				t.Fatal("strict Read returned both store and error")
			}
		} else {
			// Accepted input must round-trip: encode to v3, read back, equal.
			var buf bytes.Buffer
			if _, werr := s.WriteTo(&buf); werr != nil {
				t.Fatalf("re-encode of accepted input failed: %v", werr)
			}
			back, rerr := Read(bytes.NewReader(buf.Bytes()))
			if rerr != nil {
				t.Fatalf("re-read failed: %v", rerr)
			}
			if !reflect.DeepEqual(s.Sweeps(), back.Sweeps()) ||
				!reflect.DeepEqual(s.MissingSweeps(), back.MissingSweeps()) ||
				!reflect.DeepEqual(s.Domains(), back.Domains()) {
				t.Fatal("round trip diverged")
			}
		}
		// The tolerant decoder must hold its invariants on the same input.
		rs, rec, rerr := ReadRecover(bytes.NewReader(data))
		if rerr == nil {
			if rec.GoodBytes > int64(len(data)) {
				t.Fatalf("GoodBytes %d exceeds input %d", rec.GoodBytes, len(data))
			}
			if got := len(rs.Domains()); got != rec.Domains {
				t.Fatalf("recovered %d domains, Recovery says %d", got, rec.Domains)
			}
			if err == nil && rec.Damaged {
				t.Fatal("strict accepted what tolerant flagged damaged")
			}
		}
	})
}

// FuzzJournalReplay asserts journal scanning never panics, that the
// valid prefix it reports is itself a clean journal, and that streaming
// the input into a store leaves exactly what decoding it and applying the
// records does.
func FuzzJournalReplay(f *testing.F) {
	// Build a small valid journal the way the pipeline does.
	path := filepath.Join(f.TempDir(), "seed.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		f.Fatal(err)
	}
	for _, rec := range []JournalSweep{
		sweepRec(10, "a.ru.", "b.ru."),
		{Day: 17, Missing: true},
		sweepRec(24, "a.ru."),
	} {
		if err := j.AppendSweep(rec); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:len(valid)-2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)/2] ^= 0x04
	f.Add(flipped)
	f.Add([]byte("WRJL\x00\x03"))
	f.Add([]byte("WRJL\x00\x03\xff\xff\xff\xff"))

	f.Fuzz(func(t *testing.T, data []byte) {
		assertStreamingMatchesDecoded(t, data)
		replay, err := DecodeJournal(bytes.NewReader(data))
		if err != nil {
			return // unreadable header
		}
		if replay.GoodBytes < 6 || replay.GoodBytes > int64(len(data)) {
			t.Fatalf("GoodBytes %d out of range for %d-byte input", replay.GoodBytes, len(data))
		}
		// The reported valid prefix must itself decode cleanly with the
		// same records — this is what OpenJournal truncates to.
		prefix, perr := DecodeJournal(bytes.NewReader(data[:replay.GoodBytes]))
		if perr != nil {
			t.Fatalf("valid prefix failed to decode: %v", perr)
		}
		if prefix.Torn() {
			t.Fatal("valid prefix reported torn")
		}
		if len(prefix.Sweeps) != len(replay.Sweeps) {
			t.Fatalf("prefix has %d sweeps, replay had %d", len(prefix.Sweeps), len(replay.Sweeps))
		}
	})
}

// FuzzMeasurementBatch asserts the measurement-list parser never panics,
// and that whatever it accepts re-encodes to bytes that decode to the same
// records — normalized, as the encoder leaves them — and re-encode to
// themselves. The one refusal allowed is the weight bound: an accepted
// input may carry slack the re-encoding drops (an unused set, a long
// varint), leaving fewer bytes to bear the same weight.
func FuzzMeasurementBatch(f *testing.F) {
	rec := canonicalSweep(goldenJournalSweeps()[2])
	valid, err := EncodeMeasurementBatch(rec.Day, rec.Measurements)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	// Hand-made lists over a table of one empty set.
	batch := func(list ...uint64) []byte {
		var e encoder
		e.I32(int32(rec.Day))
		e.Uvarint(1) // sets
		e.Uvarint(0) // hosts
		e.Uvarint(0) // addrs
		for _, v := range list {
			e.Uvarint(v)
		}
		return e.Bytes()
	}
	name := func(s string) []uint64 { // suffix length and bytes, as uvarints < 128
		out := []uint64{uint64(len(s))}
		for _, c := range []byte(s) {
			out = append(out, uint64(c))
		}
		return out
	}
	measurement := func(shared uint64, suffix string, ns, mx uint64) []uint64 {
		return append(append([]uint64{shared}, name(suffix)...), ns, mx, 0)
	}
	// NS set 5 of a table of 1.
	f.Add(batch(append([]uint64{1}, measurement(0, "a.ru.", 5<<1, 0)...)...))
	// A name sharing 9 bytes with a 5-byte predecessor.
	first := measurement(0, "a.ru.", 0, 0)
	f.Add(batch(append(append([]uint64{2}, first...), measurement(9, "b", 0, 0)...)...))
	// 33,554,431 sets announced, no bytes behind them.
	f.Add(append(binary.BigEndian.AppendUint32(nil, uint32(rec.Day)), 0xff, 0xff, 0xff, 0x0f))
	// The two lists a few bytes apiece stand for many: names each one byte
	// longer than the last, and measurements all numbering one large set.
	f.Add(prefixChainBatch(rec.Day, 300))
	f.Add(heavySetBatch(rec.Day, 50, 400))

	f.Fuzz(func(t *testing.T, data []byte) {
		day, ms, err := DecodeMeasurementBatch(data)
		if err != nil {
			return
		}
		again, err := EncodeMeasurementBatch(day, ms) // normalizes ms in place
		if errors.Is(err, errHeavyList) {
			return
		}
		if err != nil {
			t.Fatalf("re-encoding an accepted batch: %v", err)
		}
		day2, ms2, err := DecodeMeasurementBatch(again)
		if err != nil || day2 != day || !reflect.DeepEqual(ms2, ms) {
			t.Fatalf("re-encoded batch decodes to day %v, %d measurements, %v; want day %v, %d measurements", day2, len(ms2), err, day, len(ms))
		}
		if third, err := EncodeMeasurementBatch(day2, ms2); err != nil || !bytes.Equal(third, again) {
			t.Fatalf("a canonical batch does not re-encode to itself (%v)", err)
		}
	})
}
