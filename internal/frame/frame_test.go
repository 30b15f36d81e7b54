package frame

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

func mustAppend(t testing.TB, payload []byte) []byte {
	t.Helper()
	b, err := Append(nil, payload, MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func verdictOf(err error) Verdict {
	var fe *Error
	if errors.As(err, &fe) {
		return fe.Verdict
	}
	return 0
}

// TestLayout pins the frame's absolute bytes with the CRC-32C check
// value ("123456789" → e3069283): big-endian length, payload, big-endian
// Castagnoli checksum of the payload alone.
func TestLayout(t *testing.T) {
	want := append(append([]byte{0, 0, 0, 9}, "123456789"...), 0xe3, 0x06, 0x92, 0x83)
	if got := mustAppend(t, []byte("123456789")); !bytes.Equal(got, want) {
		t.Fatalf("frame of the check string:\n got % x\nwant % x", got, want)
	}
	// Appending leaves what dst already held alone.
	if got, err := Append([]byte("xy"), nil, 0); err != nil || !bytes.Equal(got, []byte{'x', 'y', 0, 0, 0, 0, 0, 0, 0, 0}) {
		t.Fatalf("empty frame behind a prefix: % x, %v", got, err)
	}
}

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{{}, {0x42}, bytes.Repeat([]byte{0xab}, 4096), bytes.Repeat([]byte{0xcd}, 1<<17)} {
		f := mustAppend(t, payload)
		got, n, err := Read(bytes.NewReader(f), MaxPayload)
		if err != nil {
			t.Fatalf("Read(%d bytes): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) || n != int64(len(f)) {
			t.Errorf("round trip of a %d-byte payload: got %d bytes, consumed %d of %d", len(payload), len(got), n, len(f))
		}
		// Begin/Finish builds the same frame in place.
		var w Writer
		w.Begin()
		w.Raw(payload)
		inPlace, err := w.Finish(MaxPayload)
		if err != nil || !bytes.Equal(inPlace, f) {
			t.Errorf("Begin/Finish of a %d-byte payload differs from Append (err %v)", len(payload), err)
		}
	}
}

// TestCleanEOF: an input that ends before a frame starts is io.EOF, bare,
// with nothing consumed — the one outcome that is not damage.
func TestCleanEOF(t *testing.T) {
	if _, n, err := Read(bytes.NewReader(nil), MaxPayload); err != io.EOF || n != 0 {
		t.Fatalf("empty input: consumed %d, err %v", n, err)
	}
	two := append(mustAppend(t, []byte("a")), mustAppend(t, []byte("bc"))...)
	r := bytes.NewReader(two)
	for i := 0; i < 2; i++ {
		if _, _, err := Read(r, MaxPayload); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if _, _, err := Read(r, MaxPayload); err != io.EOF {
		t.Fatalf("after the last frame: %v", err)
	}
}

// TestDetectsEveryBitFlip: any single-bit corruption of a frame — length,
// payload, or checksum — must surface as an error, never as a silently
// different payload. This is the property the grid's lease machinery and
// the journal's torn-tail rule both lean on.
func TestDetectsEveryBitFlip(t *testing.T) {
	payload := []byte("unit 7 measurements go here")
	f := mustAppend(t, payload)
	for i := 0; i < len(f); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte{}, f...)
			bad[i] ^= 1 << bit
			got, n, err := Read(bytes.NewReader(bad), MaxPayload)
			// Length flips announce a longer frame (torn), a shorter one
			// (mismatch) or an absurd one (too large); payload and
			// checksum flips are mismatches. All must fail.
			if err == nil || got != nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
			if verdictOf(err) == 0 {
				t.Fatalf("flip of byte %d bit %d: untyped error %v", i, bit, err)
			}
			if i >= 4 && (verdictOf(err) != Mismatch || n != int64(len(f))) {
				t.Fatalf("flip of byte %d bit %d: verdict %v, consumed %d", i, bit, err, n)
			}
		}
	}
}

// TestTruncation: every proper prefix of a frame is torn, and consumed
// counts exactly the bytes that were there — what a journal scanner adds
// to TornBytes so that GoodBytes + TornBytes is the file size.
func TestTruncation(t *testing.T) {
	f := mustAppend(t, []byte("torn mid-flight"))
	for n := 1; n < len(f); n++ {
		got, consumed, err := Read(bytes.NewReader(f[:n]), MaxPayload)
		if got != nil || verdictOf(err) != Torn {
			t.Fatalf("%d-byte truncation of a %d-byte frame: payload %v, err %v", n, len(f), got, err)
		}
		if consumed != int64(n) {
			t.Fatalf("%d-byte truncation: consumed %d", n, consumed)
		}
		if !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte truncation: cause %v not reachable through errors.Is", n, err)
		}
	}
}

func TestRejectsAbsurdLength(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxPayload+1)
	_, n, err := Read(bytes.NewReader(append(hdr, 1, 2, 3)), MaxPayload)
	if verdictOf(err) != TooLarge || n != 4 {
		t.Fatalf("oversized announcement: consumed %d, err %v", n, err)
	}
	// The limit is the caller's: the same frame passes a wider one and the
	// boundary is exact on both sides.
	f := mustAppend(t, make([]byte, 100))
	if _, _, err := Read(bytes.NewReader(f), 100); err != nil {
		t.Fatalf("payload of exactly max: %v", err)
	}
	if _, _, err := Read(bytes.NewReader(f), 99); verdictOf(err) != TooLarge {
		t.Fatalf("payload of max+1: %v", err)
	}
	if _, err := Append(nil, make([]byte, 100), 99); err == nil {
		t.Fatal("Append accepted an oversized payload")
	}
	var w Writer
	w.Begin()
	w.Raw(make([]byte, 100))
	if _, err := w.Finish(99); err == nil {
		t.Fatal("Finish accepted an oversized payload")
	}
}

// offerReader is a bytes.Reader that records the largest buffer a read
// offered it: the memory its caller had grown to hold what arrives.
type offerReader struct {
	*bytes.Reader
	most int
}

func (r *offerReader) Read(p []byte) (int, error) {
	r.most = max(r.most, len(p))
	return r.Reader.Read(p)
}

// TestBoundsAllocationByInput: a length prefix promising the full 64 MiB
// against a few bytes of input must fail having grown its buffer to about
// what arrived, not what was promised — read off the buffers Read offers
// its input, which a process-wide allocation counter cannot tell apart
// from every other test's.
func TestBoundsAllocationByInput(t *testing.T) {
	in := append(binary.BigEndian.AppendUint32(nil, MaxPayload), bytes.Repeat([]byte{7}, 1000)...)
	r := &offerReader{Reader: bytes.NewReader(in)}
	_, n, err := Read(r, MaxPayload)
	if verdictOf(err) != Torn || n != int64(len(in)) {
		t.Fatalf("consumed %d of %d, err %v", n, len(in), err)
	}
	if r.most > 1<<20 {
		t.Fatalf("a %d-byte input made Read offer a %d-byte buffer", len(in), r.most)
	}
}

// TestBufferReusesItsMemory: a Buffer that has held the largest frame of a
// stream reads every later one without allocating; each payload is a view
// of the same memory, good until the next Read — where the one-shot Read
// hands out memory of the caller's own.
func TestBufferReusesItsMemory(t *testing.T) {
	big, small := bytes.Repeat([]byte{0xab}, 300<<10), []byte("a small frame")
	stream := append(mustAppend(t, big), mustAppend(t, small)...)
	var b Buffer
	rd := bytes.NewReader(stream)
	first, _, err := b.Read(rd, MaxPayload)
	if err != nil || !bytes.Equal(first, big) {
		t.Fatalf("first frame: %d bytes, %v", len(first), err)
	}
	second, _, err := b.Read(rd, MaxPayload)
	if err != nil || !bytes.Equal(second, small) {
		t.Fatalf("second frame: %q, %v", second, err)
	}
	if &first[0] != &second[0] {
		t.Fatal("the second frame was not read into the buffer the first one grew")
	}
	if n := testing.AllocsPerRun(10, func() {
		rd.Reset(stream)
		for i := 0; i < 2; i++ {
			if _, _, err := b.Read(rd, MaxPayload); err != nil {
				t.Fatal(err)
			}
		}
	}); n != 0 {
		t.Fatalf("reading two frames into a grown buffer: %v allocations", n)
	}
	rd.Reset(stream)
	one, _, _ := Read(rd, MaxPayload)
	two, _, _ := Read(rd, MaxPayload)
	if !bytes.Equal(one, big) || !bytes.Equal(two, small) {
		t.Fatal("one-shot Read payloads do not survive the next Read")
	}
}

// TestBufferGrowsWithArrivingBytes: the retained buffer obeys the same
// rule as the one-shot read — a frame announcing 64 MiB grows it by what
// arrives, at most doubling, never by what was promised; and what arrives
// within its capacity grows it not at all. Read off the buffer's own
// capacity: a process-wide allocation counter also sees the runtime's and
// every other test's.
func TestBufferGrowsWithArrivingBytes(t *testing.T) {
	var b Buffer
	if _, _, err := b.Read(bytes.NewReader(mustAppend(t, make([]byte, 100<<10))), MaxPayload); err != nil {
		t.Fatal(err)
	}
	for _, arriving := range []int{1000, 300 << 10} {
		in := append(binary.BigEndian.AppendUint32(nil, MaxPayload), bytes.Repeat([]byte{7}, arriving)...)
		before := cap(b.b)
		_, n, err := b.Read(bytes.NewReader(in), MaxPayload)
		if verdictOf(err) != Torn || n != int64(len(in)) {
			t.Fatalf("consumed %d of %d, err %v", n, len(in), err)
		}
		if after := cap(b.b); after > max(before, 2*arriving) {
			t.Fatalf("%d arriving bytes grew a buffer of %d to %d", arriving, before, after)
		}
	}
}

// FuzzFrameRead: Read never panics, never hands back more than max, never
// claims more input than there was, and anything it accepts re-Appends to
// exactly the bytes it consumed.
func FuzzFrameRead(f *testing.F) {
	valid := mustAppend(f, []byte("a sweep segment, a store section or a grid message"))
	f.Add(valid, uint32(MaxPayload))
	f.Add(valid, uint32(10)) // over the caller's limit
	f.Add(append(append([]byte{}, valid...), valid...), uint32(MaxPayload))
	// Torn at every part: inside the length, the payload, the checksum.
	f.Add(valid[:2], uint32(MaxPayload))
	f.Add(valid[:len(valid)/2], uint32(MaxPayload))
	f.Add(valid[:len(valid)-2], uint32(MaxPayload))
	// Bit flips in the length, the payload and the checksum.
	for _, i := range []int{3, len(valid) / 2, len(valid) - 1} {
		flipped := append([]byte{}, valid...)
		flipped[i] ^= 0x04
		f.Add(flipped, uint32(MaxPayload))
	}
	// Garbage lengths: all ones (the journal fuzzer's "\xff\xff\xff\xff"
	// tail), just over the limit, and a huge promise over a short input.
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint32(MaxPayload))
	f.Add(binary.BigEndian.AppendUint32(nil, MaxPayload+1), uint32(MaxPayload))
	f.Add(append(binary.BigEndian.AppendUint32(nil, MaxPayload), 1, 2, 3), uint32(MaxPayload))
	f.Add(mustAppend(f, nil), uint32(0))
	f.Add([]byte{}, uint32(0))

	f.Fuzz(func(t *testing.T, data []byte, max32 uint32) {
		max := int(max32 % (MaxPayload + 1))
		payload, n, err := Read(bytes.NewReader(data), max)
		// A buffer that has held another frame gives the same answer.
		var used Buffer
		used.Read(bytes.NewReader(valid), MaxPayload)
		again, un, uerr := used.Read(bytes.NewReader(data), max)
		if !bytes.Equal(again, payload) || un != n || verdictOf(uerr) != verdictOf(err) || (uerr == io.EOF) != (err == io.EOF) || cap(again) > max {
			t.Fatalf("used buffer: %d bytes, consumed %d, %v; fresh read: %d bytes, consumed %d, %v", len(again), un, uerr, len(payload), n, err)
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("consumed %d of a %d-byte input", n, len(data))
		}
		if err != nil {
			if payload != nil {
				t.Fatal("Read returned both a payload and an error")
			}
			if err == io.EOF {
				if len(data) != 0 {
					t.Fatalf("clean EOF on a %d-byte input", len(data))
				}
				return
			}
			switch verdictOf(err) {
			case Torn, Mismatch:
			case TooLarge:
				if n != 4 {
					t.Fatalf("too-large frame consumed %d bytes", n)
				}
			default:
				t.Fatalf("untyped error %v", err)
			}
			return
		}
		if len(payload) > max || cap(payload) > max {
			t.Fatalf("payload of %d bytes (cap %d) over max %d", len(payload), cap(payload), max)
		}
		framed, aerr := Append(nil, payload, max)
		if aerr != nil || !bytes.Equal(framed, data[:n]) {
			t.Fatalf("accepted payload does not re-Append to the %d bytes consumed (err %v)", n, aerr)
		}
	})
}
