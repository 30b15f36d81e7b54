package dns

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// fuzzDiffSeeds are the FuzzMessageDecode starting corpus: well-formed
// messages of every RDATA shape the codec knows, plus the hostile wire
// shapes the fast decoder must reject without panicking — compression
// pointer loops, pointers past the end of the buffer, and RDATA cut
// short of its declared length.
func fuzzDiffSeeds() [][]byte {
	var seeds [][]byte
	add := func(b []byte, err error) {
		if err == nil {
			seeds = append(seeds, b)
		}
	}
	add(sampleMessage().Encode())
	add(NewQuery(7, "пример.xn--p1ai.", TypeANY).Encode())
	resp := NewQuery(8, "example.ru.", TypeA).Reply()
	resp.Authoritative = true
	resp.Answers = []RR{
		NewA("example.ru.", 300, mustAddr("194.58.117.5")),
		NewCNAME("www.example.ru.", 300, "example.ru."),
	}
	resp.Authority = []RR{NewNS("example.ru.", 3600, "ns1.reg.ru.")}
	resp.Additional = []RR{NewA("ns1.reg.ru.", 3600, mustAddr("194.58.116.30"))}
	add(resp.Encode())

	// Header promising one question whose name is a compression pointer
	// to itself: a decoder that follows it naively never terminates.
	selfLoop := []byte{
		0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, // header, QDCOUNT=1
		0xC0, 0x0C, // name: pointer to offset 12 — itself
		0, 1, 0, 1, // TYPE A, CLASS IN
	}
	seeds = append(seeds, selfLoop)

	// Two pointers chasing each other.
	pingPong := append([]byte{0, 2, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		0xC0, 0x0E, 0xC0, 0x0C, 0, 1, 0, 1)
	seeds = append(seeds, pingPong)

	// Pointer far past the end of the buffer.
	oob := append([]byte{0, 3, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0},
		0xC3, 0xFF, 0, 1, 0, 1)
	seeds = append(seeds, oob)

	// A real answer truncated inside its RDATA, and with RDLENGTH lying.
	if wire, err := resp.Encode(); err == nil && len(wire) > 20 {
		seeds = append(seeds, wire[:len(wire)-3])
		lying := bytes.Clone(wire)
		lying[len(lying)-5] ^= 0xFF // somewhere in the final A record's RDLENGTH/RDATA
		seeds = append(seeds, lying)
	}
	seeds = append(seeds, bytes.Repeat([]byte{0xC0}, 64))
	return seeds
}

// FuzzMessageDecode differentially pins the zero-copy fast decoder to
// the preserved reference codec, the executable spec the fast path must
// never drift from:
//
//   - both decoders reach the same accept/reject verdict on every input;
//   - accepted inputs decode to deeply equal messages;
//   - the fast and reference encoders serialize those messages to the
//     same bytes (or both refuse);
//   - the fast path's encoding is a fixed point: decode → encode →
//     decode → encode reproduces the same bytes;
//   - a pooled arena carries nothing over: the input decoded into an
//     arena that just held another message (each seed in turn, and the
//     input's own canonical form) equals its fresh decode.
//
// Hostile inputs — pointer loops, out-of-bounds offsets, truncated
// RDATA — must error on both sides, never panic or diverge.
func FuzzMessageDecode(f *testing.F) {
	for _, seed := range fuzzDiffSeeds() {
		f.Add(seed)
	}
	seeds := fuzzDiffSeeds()
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, prior := range seeds {
			if msg := arenaReuseMismatch(prior, data); msg != "" {
				t.Fatal(msg)
			}
		}
		fastWire, msg := codecMismatch(data)
		if msg != "" {
			t.Fatal(msg)
		}
		if fastWire == nil {
			return // rejected, or decoded to a payload that only fails cleanly to encode
		}

		again, err := Decode(fastWire)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		finalWire, err := again.Encode()
		if err != nil {
			t.Fatalf("re-encode of canonical message failed: %v", err)
		}
		if !bytes.Equal(fastWire, finalWire) {
			t.Fatalf("encoding is not a fixed point:\n%x\n%x", fastWire, finalWire)
		}
		if msg := arenaReuseMismatch(data, fastWire); msg != "" {
			t.Fatal(msg)
		}
	})
}

// codecMismatch is FuzzMessageDecode's comparator: it decodes data with
// both codecs, re-encodes what they decoded, and describes the first
// disagreement. When they agree it returns "" and the fast re-encoding
// (nil if both rejected data, or both refused to encode its message).
func codecMismatch(data []byte) (fastWire []byte, msg string) {
	fast, fastErr := Decode(data)
	ref, refErr := ReferenceDecode(data)
	if (fastErr == nil) != (refErr == nil) {
		return nil, fmt.Sprintf("decode verdicts disagree on %x:\nfast: %v\nref:  %v", data, fastErr, refErr)
	}
	if fastErr != nil {
		return nil, ""
	}
	if !reflect.DeepEqual(fast, ref) {
		return nil, fmt.Sprintf("decoded messages disagree on %x:\nfast: %+v\nref:  %+v", data, fast, ref)
	}
	fastWire, fErr := fast.Encode()
	refWire, rErr := ReferenceEncode(ref)
	if (fErr == nil) != (rErr == nil) {
		return nil, fmt.Sprintf("re-encode verdicts disagree:\nfast: %v\nref:  %v", fErr, rErr)
	}
	if fErr != nil {
		return nil, ""
	}
	if !bytes.Equal(fastWire, refWire) {
		return nil, fmt.Sprintf("re-encodings disagree:\nfast: %x\nref:  %x", fastWire, refWire)
	}
	return fastWire, ""
}

// arenaReuseMismatch decodes first into an arena, ends that use the way
// Release does, decodes second into the same arena, and describes any
// difference from a fresh Decode(second): verdict, any section, or the
// re-encoding. It returns "" when reuse is invisible.
func arenaReuseMismatch(first, second []byte) string {
	a, intern := new(msgArena), newWireIntern()
	if a.decode(first, intern) == nil {
		a.reset()
	}
	want, wantErr := Decode(second)
	gotErr := a.decode(second, intern)
	if (gotErr == nil) != (wantErr == nil) {
		return fmt.Sprintf("arena and fresh decode verdicts disagree on %x after %x:\narena: %v\nfresh: %v", second, first, gotErr, wantErr)
	}
	if wantErr != nil {
		return ""
	}
	got := a.m
	got.arena = nil
	if !reflect.DeepEqual(&got, want) {
		return fmt.Sprintf("arena decode of %x after %x differs from a fresh decode:\narena: %+v\nfresh: %+v", second, first, &got, want)
	}
	gotWire, gotErr := a.m.Encode()
	wantWire, wantErr := want.Encode()
	if (gotErr == nil) != (wantErr == nil) || !bytes.Equal(gotWire, wantWire) {
		return fmt.Sprintf("arena decode of %x after %x re-encodes differently:\narena: %x (%v)\nfresh: %x (%v)", second, first, gotWire, gotErr, wantWire, wantErr)
	}
	return ""
}
