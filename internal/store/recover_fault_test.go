package store

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"whereru/internal/iofault"
	"whereru/internal/iofault/chaostest"
)

// storeSection is one length-framed, checksummed region of a v3 store
// file: [off, end) covering payloadLen u32 | payload | crc32c u32.
type storeSection struct {
	name     string
	off, end int
}

// walkSections parses a v3 store file's framing into named sections:
// the fixed layout is sweeps, missing days, domain count, then one
// section per domain.
func walkSections(t *testing.T, full []byte) []storeSection {
	t.Helper()
	names := []string{"sweeps", "missing", "domain-count"}
	var secs []storeSection
	off := 6 // magic + version
	for i := 0; off < len(full); i++ {
		if off+4 > len(full) {
			t.Fatalf("section %d: torn length at %d", i, off)
		}
		payloadLen := int(binary.BigEndian.Uint32(full[off:]))
		end := off + 4 + payloadLen + 4
		if end > len(full) {
			t.Fatalf("section %d: runs past the file (%d > %d)", i, end, len(full))
		}
		name := "domain"
		if i < len(names) {
			name = names[i]
		}
		secs = append(secs, storeSection{name: name, off: off, end: end})
		off = end
	}
	return secs
}

// sampleOffsets picks n deterministic byte offsets inside [off, end),
// spread by an FNV hash so the samples land in length prefixes,
// payloads and checksums alike.
func sampleOffsets(off, end, n int, salt uint64) []int {
	if end <= off {
		return nil
	}
	out := make([]int, 0, n)
	for i := 0; i < n; i++ {
		h := fnv.New64a()
		var b [16]byte
		binary.BigEndian.PutUint64(b[:8], salt)
		binary.BigEndian.PutUint64(b[8:], uint64(i))
		h.Write(b[:])
		out = append(out, off+int(h.Sum64()%uint64(end-off)))
	}
	return out
}

// TestReadRecoverSectionFaults flips a byte at sampled offsets inside
// every section of a v3 file and asserts the salvage contract per
// section kind: damage to the sweeps/missing/count headers recovers
// zero domains (the prefix before the damage holds none), damage to
// domain section k recovers exactly the first k domains with intact
// histories — never a partial or corrupted history.
func TestReadRecoverSectionFaults(t *testing.T) {
	s := buildStore(12)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	secs := walkSections(t, full)
	wantDomains := s.Domains()

	domainIdx := 0
	for _, sec := range secs {
		wantPrefix := 0 // domains that must survive damage in this section
		if sec.name == "domain" {
			wantPrefix = domainIdx
			domainIdx++
		}
		for _, pos := range sampleOffsets(sec.off, sec.end, 8, uint64(sec.off)) {
			flipped := append([]byte(nil), full...)
			flipped[pos] ^= 0x01
			if bytes.Equal(flipped, full) {
				t.Fatalf("flip at %d was a no-op", pos)
			}
			back, rec, err := ReadRecover(bytes.NewReader(flipped))
			if err != nil {
				t.Fatalf("%s@%d: ReadRecover error: %v", sec.name, pos, err)
			}
			if !rec.Damaged {
				t.Fatalf("%s@%d: damage not flagged", sec.name, pos)
			}
			got := back.Domains()
			if len(got) != wantPrefix {
				t.Fatalf("%s@%d: recovered %d domains, want the %d before the damage",
					sec.name, pos, len(got), wantPrefix)
			}
			for i, d := range got {
				if d != wantDomains[i] {
					t.Fatalf("%s@%d: domain %d is %q, want %q", sec.name, pos, i, d, wantDomains[i])
				}
				if !reflect.DeepEqual(back.History(d), s.History(d)) {
					t.Fatalf("%s@%d: salvaged history for %s differs", sec.name, pos, d)
				}
			}
			if rec.GoodBytes > int64(sec.end) {
				t.Fatalf("%s@%d: GoodBytes %d claims bytes past the damaged section (%d)",
					sec.name, pos, rec.GoodBytes, sec.end)
			}
		}
	}
	if domainIdx != len(wantDomains) {
		t.Fatalf("walked %d domain sections, store has %d domains", domainIdx, len(wantDomains))
	}
}

// TestReadRecoverTruncationAtSectionBoundaries cuts the file exactly at
// each section boundary: a clean cut after domain section k is the
// crash-after-k-writes shape, and must recover exactly k domains.
func TestReadRecoverTruncationAtSectionBoundaries(t *testing.T) {
	s := buildStore(9)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	secs := walkSections(t, full)
	domainsSeen := 0
	for _, sec := range secs {
		if sec.name == "domain" {
			domainsSeen++
		}
		back, rec, err := ReadRecover(bytes.NewReader(full[:sec.end]))
		if err != nil {
			t.Fatalf("cut after %s: %v", sec.name, err)
		}
		wantDamaged := sec.end != len(full)
		if rec.Damaged != wantDamaged {
			t.Fatalf("cut after %s@%d: Damaged=%v want %v", sec.name, sec.end, rec.Damaged, wantDamaged)
		}
		if got := len(back.Domains()); got != domainsSeen {
			t.Fatalf("cut after %s: %d domains, want %d", sec.name, got, domainsSeen)
		}
	}
}

// TestReadRecoverThroughFaultFS reads the store through the iofault
// layer: short reads must be invisible (they defer bytes, not lose
// them), and injected bit-flips must surface as flagged damage with a
// clean prefix salvage — the disk-rot shape of the same contract.
func TestReadRecoverThroughFaultFS(t *testing.T) {
	s := buildStore(10)
	path := filepath.Join(t.TempDir(), "s.wrst")
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	// Short reads: same store, byte for byte.
	sfs := chaostest.NewFaultFS(iofault.OS, 31, chaostest.Profile{ShortReadProb: 0.9})
	f, err := iofault.Open(sfs, path)
	if err != nil {
		t.Fatal(err)
	}
	back, rec, err := ReadRecover(f)
	f.Close()
	if err != nil || rec.Damaged {
		t.Fatalf("short reads broke recovery: err=%v damaged=%v", err, rec.Damaged)
	}
	storesEqual(t, s, back)
	if sfs.Stats().Injected == 0 {
		t.Fatal("no short reads injected")
	}

	// Bit rot on the read path: flagged, salvage is an intact prefix.
	for _, seed := range []int64{41, 42, 43, 44} {
		bfs := chaostest.NewFaultFS(iofault.OS, seed, chaostest.Profile{ReadBitFlipProb: 0.05})
		f, err := iofault.Open(bfs, path)
		if err != nil {
			t.Fatal(err)
		}
		back, rec, err := ReadRecover(io.Reader(f))
		f.Close()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if bfs.Stats().Injected == 0 {
			// This seed's schedule flipped nothing in a file this size;
			// the clean-read contract applies instead.
			if rec.Damaged {
				t.Fatalf("seed %d: no fault injected but damage flagged", seed)
			}
			continue
		}
		if !rec.Damaged {
			// A flip can land in bytes ReadRecover never checksums only if
			// it hit a region already past GoodBytes; with flips injected
			// the file must not silently read back identical.
			storesEqual(t, s, back)
			continue
		}
		for _, d := range back.Domains() {
			if !reflect.DeepEqual(back.History(d), s.History(d)) {
				t.Fatalf("seed %d: salvaged history for %s differs", seed, d)
			}
		}
	}
}
