package frame

import (
	"bytes"
	"strings"
	"testing"
)

// writeSample writes one of every field kind.
func writeSample(w *Writer) {
	w.U8(7)
	w.U16(0xbeef)
	w.U32(0xdeadbeef)
	w.I32(-19000)
	w.Uint32(70000, "sweep", "stat")
	w.Count16(2, "x.ru.", "NS host")
	w.Str16("ns1.x.ru.", "x.ru.", "NS host")
	w.Str16("", "x.ru.", "NS host")
	w.Count32(1, "", "measurement")
	w.Raw([]byte{10, 0, 0, 1})
	w.Uvarint(300)
	w.Uvarint(2)
	w.StrVar("domain0000001.ru.")
}

func readSample(t *testing.T, r *Reader) {
	t.Helper()
	if v := r.U8("", "a"); v != 7 {
		t.Errorf("U8 = %d", v)
	}
	if v := r.Take(2, "", "b"); !bytes.Equal(v, []byte{0xbe, 0xef}) {
		t.Errorf("U16 wrote % x", v)
	}
	if v := r.U32("", "c"); v != 0xdeadbeef {
		t.Errorf("U32 = %x", v)
	}
	if v := r.I32("", "e"); v != -19000 {
		t.Errorf("I32 = %d", v)
	}
	if v := r.U32("sweep", "stat"); v != 70000 {
		t.Errorf("Uint32 = %d", v)
	}
	if n := r.Count16(2, "x.ru.", "NS host"); n != 2 {
		t.Errorf("Count16 = %d", n)
	}
	if s := r.Str16("x.ru.", "NS host"); s != "ns1.x.ru." {
		t.Errorf("Str16 = %q", s)
	}
	if b := r.Bytes16("x.ru.", "NS host"); b == nil || len(b) != 0 {
		t.Errorf("empty Bytes16 = %v", b)
	}
	if n := r.Count32(4, "", "measurement"); n != 1 {
		t.Errorf("Count32 = %d", n)
	}
	if b := r.Take(4, "", "addr"); !bytes.Equal(b, []byte{10, 0, 0, 1}) {
		t.Errorf("Take = %v", b)
	}
	if v := r.Uvarint("", "prefix"); v != 300 {
		t.Errorf("Uvarint = %d", v)
	}
	if n := r.CountVar(1, "", "NS set"); n != 2 {
		t.Errorf("CountVar = %d", n)
	}
	if b := r.BytesVar("", "suffix"); string(b) != "domain0000001.ru." {
		t.Errorf("BytesVar = %q", b)
	}
}

func TestPayloadRoundTrip(t *testing.T) {
	var w Writer
	writeSample(&w)
	if w.Err() != nil {
		t.Fatal(w.Err())
	}
	r := NewReader(w.Bytes())
	readSample(t, &r)
	if err := r.Done("sample", "payload"); err != nil {
		t.Fatal(err)
	}

	// Every truncation fails somewhere, latches, and never panics; one
	// trailing byte is refused by Done.
	for n := 0; n < len(w.Bytes()); n++ {
		r := NewReader(w.Bytes()[:n])
		readSampleQuiet(&r)
		if r.Done("sample", "payload") == nil {
			t.Fatalf("a %d-byte truncation of %d bytes decoded cleanly", n, len(w.Bytes()))
		}
	}
	r = NewReader(append(append([]byte{}, w.Bytes()...), 0))
	readSampleQuiet(&r)
	if err := r.Done("sample", "payload"); err == nil || !strings.Contains(err.Error(), "sample payload: 1 trailing bytes") {
		t.Fatalf("trailing byte: %v", err)
	}
}

func readSampleQuiet(r *Reader) {
	r.U8("", "a")
	r.Take(2, "", "b")
	r.U32("", "c")
	r.I32("", "e")
	r.U32("sweep", "stat")
	r.Count16(2, "x.ru.", "NS host")
	r.Str16("x.ru.", "NS host")
	r.Bytes16("x.ru.", "NS host")
	r.Count32(4, "", "measurement")
	r.Take(4, "", "addr")
	r.Uvarint("", "prefix")
	r.CountVar(1, "", "NS set")
	r.BytesVar("", "suffix")
}

// TestReaderChecksCountsBeforeAllocation: a count or length that the
// remaining bytes cannot back is refused at the field, with the label
// joined from (ctx, what), and the failure latches.
func TestReaderChecksCountsBeforeAllocation(t *testing.T) {
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"count16", []byte{0xff, 0xff, 1, 2, 3, 4}, func(r *Reader) { r.Count16(4, "x.ru.", "NS addr") },
			"x.ru. NS addr count 65535 exceeds remaining 4 bytes"},
		{"count32", []byte{0x3b, 0x9a, 0xca, 0x00, 1, 2}, func(r *Reader) { r.Count32(17, "x.ru.", "epoch") },
			"x.ru. epoch count 1000000000 exceeds remaining 2 bytes"},
		{"count32 all ones", []byte{0xff, 0xff, 0xff, 0xff}, func(r *Reader) { r.Count32(1, "", "measurement") },
			"measurement count 4294967295 exceeds remaining 0 bytes"},
		{"short count", []byte{0xff}, func(r *Reader) { r.Count16(2, "x.ru.", "MX host") },
			"x.ru. MX host count: need 2 bytes, 1 remain"},
		{"str16", []byte{0, 9, 'n', 's'}, func(r *Reader) { r.Str16("", "domain name") },
			"domain name: need 9 bytes, 2 remain"},
		{"short length", []byte{0}, func(r *Reader) { r.Bytes16("x.ru.", "NS host") },
			"x.ru. NS host length: need 2 bytes, 1 remain"},
		{"take", []byte{1, 2, 3}, func(r *Reader) { r.Take(4, "x.ru.", "apex addr") },
			"x.ru. apex addr: need 4 bytes, 3 remain"},
		{"countvar", []byte{0xac, 0x02, 1, 2}, func(r *Reader) { r.CountVar(1, "", "NS set") },
			"NS set count 300 exceeds remaining 2 bytes"},
		{"countvar huge", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}, func(r *Reader) { r.CountVar(1, "", "MX set") },
			"MX set count 18446744073709551615 exceeds remaining 0 bytes"},
		{"torn varint", []byte{0x80, 0x80}, func(r *Reader) { r.Uvarint("", "prefix") },
			"prefix: bad varint, 2 bytes remain"},
		{"varint overflow", bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.BytesVar("", "suffix") },
			"suffix: bad varint, 11 bytes remain"},
		{"bytesvar", []byte{5, 'a', 'b'}, func(r *Reader) { r.BytesVar("", "suffix") },
			"suffix: need 5 bytes, 2 remain"},
		{"bytesvar huge", []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01, 1}, func(r *Reader) { r.BytesVar("", "suffix") },
			"suffix: need 2147483647 bytes, 1 remain"},
	}
	for _, tc := range cases {
		r := NewReader(tc.in)
		tc.read(&r)
		if r.Err() == nil || r.Err().Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, r.Err(), tc.want)
		}
		// Latched: later reads return zero and keep the first failure.
		if r.U8("", "later") != 0 || r.Err().Error() != tc.want {
			t.Errorf("%s: failure did not latch", tc.name)
		}
	}
}

func TestWriterLatchesOverflow(t *testing.T) {
	cases := []struct {
		write func(w *Writer)
		want  string
	}{
		{func(w *Writer) { w.Count16(70000, "big.ru.", "NS host") }, "big.ru. NS host count 70000 overflows u16"},
		{func(w *Writer) { w.Str16(strings.Repeat("a", 1<<16), "", "domain name") }, "domain name length 65536 overflows u16"},
		{func(w *Writer) { w.Uint32(-1, "", "sweep stat") }, "sweep stat -1 overflows u32"},
		{func(w *Writer) { w.Count32(-1, "x.ru.", "epoch") }, "x.ru. epoch count -1 overflows u32"},
	}
	for _, tc := range cases {
		var w Writer
		w.Begin()
		tc.write(&w)
		w.Count16(1<<20, "", "later") // must not replace the first failure
		if _, err := w.Finish(MaxPayload); err == nil || err.Error() != tc.want {
			t.Errorf("err = %v, want %q", err, tc.want)
		}
		if len(w.Bytes()) != 4 {
			t.Errorf("%q: a refused field still wrote %d bytes", tc.want, len(w.Bytes())-4)
		}
	}
}

// TestLabelsCostNothingUntilFailure pins what replaced the store's *Ctx
// reader twins: the decode and encode paths take (ctx, what) and allocate
// nothing for it while the payload is good.
func TestLabelsCostNothingUntilFailure(t *testing.T) {
	var w Writer
	writeSample(&w)
	payload := append([]byte{}, w.Bytes()...)
	if allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(payload)
		r.U8("", "a")
		r.Take(2, "", "b")
		r.U32("", "c")
		r.I32("", "e")
		r.U32("sweep", "stat")
		r.Count16(2, "x.ru.", "NS host")
		r.Bytes16("x.ru.", "NS host")
		r.Bytes16("x.ru.", "NS host")
		r.Count32(4, "", "measurement")
		r.Take(4, "", "addr")
		r.Uvarint("", "prefix")
		r.CountVar(1, "", "NS set")
		r.BytesVar("", "suffix")
		if r.Done("sample", "payload") != nil {
			t.Fatal(r.Err())
		}
	}); allocs != 0 {
		t.Errorf("decoding a good payload allocated %.0f times", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		w.Reset()
		writeSample(&w)
	}); allocs != 0 {
		t.Errorf("encoding into a warm writer allocated %.0f times", allocs)
	}
}
