package dns

import (
	"bytes"
	"errors"
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
		rawRR("www.example.ru.", typeCNAME, 300, wireName("example.ru.")),
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

	// A question whose label holds a space: refused every time it is
	// decoded, so a decoder must not intern it on the way to the refusal.
	seeds = append(seeds, []byte{0, 5, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 3, 'a', ' ', 'b', 0, 0, 1, 0, 1})

	// Owner names that are only pointers: to the question, to a suffix of
	// it, to an NS host's first label and to a label inside it.
	ptrs := NewQuery(9, "example.ru.", TypeNS).Reply()
	ptrs.Authority = []RR{NewNS("example.ru.", 3600, "ns1.reg.ru."), NewNS("ru.", 3600, "a.dns.ripn.net.")}
	ptrs.Additional = []RR{NewA("ns1.reg.ru.", 3600, mustAddr("194.58.116.30")), NewA("reg.ru.", 60, mustAddr("194.58.116.31"))}
	if wire, err := ptrs.Encode(); err == nil {
		seeds = append(seeds, wire)
		// One more record each, owned by a bare pointer to the question,
		// to its "ru." and to the NS host's labels (RDATA names are
		// written uncompressed, so the host's labels are literal).
		host := bytes.Index(wire, []byte("\x03ns1\x03reg\x02ru\x00"))
		for _, to := range []int{12, 20, host, host + 4} {
			seeds = append(seeds, appendPointerOwnerRR(wire, to))
		}
	}

	// A pointer to a decoded name whose own walk took 31 jumps is 32 in
	// all (accepted); one more link makes it 33 (rejected).
	seeds = append(seeds, jumpChain(32), jumpChain(33))
	return seeds
}

// appendPointerOwnerRR returns wire with one more additional record, an
// A record whose owner name is a pointer to offset to.
func appendPointerOwnerRR(wire []byte, to int) []byte {
	out := bytes.Clone(wire)
	out = append(out, 0xC0|byte(to>>8), byte(to))
	out = append(out, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 9) // A IN TTL 60, 192.0.2.9
	ar := int(out[10])<<8 | int(out[11]) + 1
	out[10], out[11] = byte(ar>>8), byte(ar)
	return out
}

// jumpChain is a message whose third answer's owner is a bare pointer to
// a label decoded before, and takes jumps pointers in all: it points at
// the second answer's owner, a literal label followed by a pointer into a
// chain of jumps-2 links that ends at the question's "ru.". The decoders'
// budget is 32 jumps.
func jumpChain(jumps int) []byte {
	k := jumps - 2
	b := []byte{0, 4, 0x80, 0, 0, 1, 0, 3, 0, 0, 0, 0} // QDCOUNT 1, ANCOUNT 3
	b = append(b, 2, 'r', 'u', 0, 0, 1, 0, 1)          // question ru. A IN at 12
	// Answer 1: an opaque record whose RDATA holds the chain; link i
	// points at link i-1, link 0 at the question.
	b = append(b, 0, 0xFF, 0x00, 0, 1, 0, 0, 0, 60, byte(2*k>>8), byte(2*k))
	chain := len(b)
	for i := 0; i < k; i++ {
		to := 12
		if i > 0 {
			to = chain + 2*(i-1)
		}
		b = append(b, 0xC0|byte(to>>8), byte(to))
	}
	// Answer 2: a.ru., "a" literal then a pointer to the chain's last link.
	label := len(b)
	last := chain + 2*(k-1)
	b = append(b, 1, 'a', 0xC0|byte(last>>8), byte(last), 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
	// Answer 3: a bare pointer to answer 2's literal label.
	b = append(b, 0xC0|byte(label>>8), byte(label), 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 2)
	return b
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
//     arena that just held another message (each seed in turn, the input
//     itself — its names then come from the intern table, which must
//     hold only valid ones — and the input's own canonical form) equals
//     its fresh decode;
//   - a hint changes nothing: the input decoded into an arena with the
//     reference decode's first question as hint, or that name with one
//     byte changed, equals the reference decode.
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
		if msg := arenaReuseMismatch(data, data); msg != "" {
			t.Fatal(msg)
		}
		fastWire, msg := codecMismatch(data)
		if msg != "" {
			t.Fatal(msg)
		}
		if msg := hintMismatch(data); msg != "" {
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

// hintMismatch decodes data into an arena twice, with hints MemNet could
// pass: the reference decode's first question, and that name with its
// first byte changed (when that is still a name the encoder accepts, as
// a hint must be). It describes the first decode that differs from the
// reference decode, or returns "".
func hintMismatch(data []byte) string {
	ref, err := ReferenceDecode(data)
	if err != nil || len(ref.Questions) == 0 {
		return ""
	}
	near := []byte(ref.Questions[0].Name)
	near[0] ^= 1
	hints := []string{ref.Questions[0].Name}
	if ValidName(string(near)) {
		hints = append(hints, string(near))
	}
	for _, hint := range hints {
		a := new(msgArena)
		if err := a.decode(data, newWireIntern(), hint); err != nil {
			return fmt.Sprintf("decode of %x with hint %q failed: %v", data, hint, err)
		}
		got := a.m
		got.arena = nil
		if !reflect.DeepEqual(&got, ref) {
			return fmt.Sprintf("decode of %x with hint %q differs from the reference:\nhinted: %+v\nref:    %+v", data, hint, &got, ref)
		}
	}
	return ""
}

// TestDecodedNamePointerJumpBudget pins the jump budget for a name that
// is a bare pointer to a name decoded before it: it takes that name's
// jumps and its own, and 32 in all is accepted and 33 is not, as the
// reference decoder rules.
func TestDecodedNamePointerJumpBudget(t *testing.T) {
	for _, jumps := range []int{32, 33} {
		data := jumpChain(jumps)
		m, err := Decode(data)
		_, refErr := ReferenceDecode(data)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%d jumps: decoders disagree: fast %v, reference %v", jumps, err, refErr)
		}
		switch {
		case jumps == 32 && (err != nil || len(m.Answers) != 3 || m.Answers[2].Name != "a.ru."):
			t.Errorf("32 jumps: %v, %v; want a third answer owned by a.ru.", m, err)
		case jumps == 33 && !errors.Is(err, ErrBadPointer):
			t.Errorf("33 jumps: %v, want ErrBadPointer", err)
		}
	}
}

// arenaReuseMismatch decodes first into an arena, ends that use the way
// Release does, decodes second into the same arena, and describes any
// difference from a fresh Decode(second): verdict, any section, or the
// re-encoding. It returns "" when reuse is invisible.
func arenaReuseMismatch(first, second []byte) string {
	a, intern := new(msgArena), newWireIntern()
	if a.decode(first, intern, "") == nil {
		a.reset()
	}
	want, wantErr := Decode(second)
	gotErr := a.decode(second, intern, "")
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
