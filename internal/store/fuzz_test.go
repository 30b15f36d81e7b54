package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// fuzzSeeds returns valid encodings in every supported version plus a
// journal, so the fuzzers start from structurally meaningful corpora.
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
// arbitrary input, and that anything the strict decoder accepts
// round-trips through the v3 encoder unchanged.
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
	f.Add([]byte("WRJL\x00\x01"))
	f.Add([]byte("WRJL\x00\x01\xff\xff\xff\xff"))

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
