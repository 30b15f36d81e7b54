package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
)

// Every Writer and Reader method that can fail names the field it was
// working on as (ctx, what) — typically the record's domain or message
// name and the field — and joins the two into a label only when it
// fails, so the decode hot paths pay nothing for their diagnostics.
func label(ctx, what string) string {
	if ctx == "" {
		return what
	}
	return ctx + " " + what
}

// Writer accumulates a big-endian payload, latching the first failure:
// lengths and counts are stored as u16/u32, and a value that does not
// fit must fail the write rather than truncate silently. The zero value
// is ready for use.
type Writer struct {
	buf   []byte
	start int // offset of the length prefix of the frame Begin opened
	err   error
}

// Reset empties the writer, keeping its buffer.
func (w *Writer) Reset() { w.buf, w.start, w.err = w.buf[:0], 0, nil }

// Bytes returns everything written so far.
func (w *Writer) Bytes() []byte { return w.buf }

// Err returns the first failure, if any.
func (w *Writer) Err() error { return w.err }

// Failf latches a failure unless one is latched already; encoders use it
// for the checks only they can make.
func (w *Writer) Failf(format string, args ...any) {
	if w.err == nil {
		w.err = fmt.Errorf(format, args...)
	}
}

// Begin opens a frame in place: it reserves the length prefix so the
// payload is built directly behind it and never copied. Finish closes
// the frame — length patched in, checksum appended — and returns it, or
// the first failure of anything written since Begin.
func (w *Writer) Begin() {
	w.start = len(w.buf)
	w.buf = append(w.buf, 0, 0, 0, 0)
}

func (w *Writer) Finish(max int) ([]byte, error) {
	payload := w.buf[w.start+4:]
	if len(payload) > max {
		w.Failf("payload %d bytes exceeds limit %d", len(payload), max)
	}
	if w.err != nil {
		return nil, w.err
	}
	binary.BigEndian.PutUint32(w.buf[w.start:], uint32(len(payload)))
	w.buf = binary.BigEndian.AppendUint32(w.buf, crc32.Checksum(payload, castagnoli))
	return w.buf[w.start:], nil
}

func (w *Writer) U8(v uint8)   { w.buf = append(w.buf, v) }
func (w *Writer) U16(v uint16) { w.buf = binary.BigEndian.AppendUint16(w.buf, v) }
func (w *Writer) U32(v uint32) { w.buf = binary.BigEndian.AppendUint32(w.buf, v) }
func (w *Writer) I32(v int32)  { w.U32(uint32(v)) }

// Raw appends fixed-size field bytes as they are.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// uint writes v as a big-endian u16 or u32 (width 2 or 4), or latches an
// overflow for a value the field cannot hold and writes nothing.
func (w *Writer) uint(v, width int, ctx, what, suffix string) bool {
	if v < 0 || uint64(v) >= 1<<(8*width) {
		w.Failf("%s%s %d overflows u%d", label(ctx, what), suffix, v, 8*width)
		return false
	}
	if width == 2 {
		w.U16(uint16(v))
	} else {
		w.U32(uint32(v))
	}
	return true
}

// Uint32 writes a non-negative int that must fit a u32; Count16 and
// Count32 write an element count.
func (w *Writer) Uint32(v int, ctx, what string)  { w.uint(v, 4, ctx, what, "") }
func (w *Writer) Count16(n int, ctx, what string) { w.uint(n, 2, ctx, what, " count") }
func (w *Writer) Count32(n int, ctx, what string) { w.uint(n, 4, ctx, what, " count") }

// Str16 writes a u16-length-prefixed string.
func (w *Writer) Str16(s, ctx, what string) {
	if w.uint(len(s), 2, ctx, what, " length") {
		w.buf = append(w.buf, s...)
	}
}

// Uvarint writes v as an unsigned varint (encoding/binary's); StrVar
// writes a string behind its varint length. Neither can overflow.
func (w *Writer) Uvarint(v uint64) { w.buf = binary.AppendUvarint(w.buf, v) }

func (w *Writer) StrVar(s string) {
	w.Uvarint(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Reader decodes a payload. Every length and count is validated against
// the bytes remaining before any allocation, so a 20-byte record claiming
// a billion elements fails immediately instead of pre-allocating
// gigabytes; the first failure latches and every later read returns zero.
// Slices it returns alias the payload.
type Reader struct {
	b   []byte
	off int
	err error
}

// NewReader returns a reader over b.
func NewReader(b []byte) Reader { return Reader{b: b} }

// Err returns the first failure, if any.
func (r *Reader) Err() error { return r.err }

// Failf latches a failure unless one is latched already; decoders use it
// for the checks only they can make (an inverted range, an unknown kind).
func (r *Reader) Failf(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// remaining is the number of undecoded bytes.
func (r *Reader) remaining() int { return len(r.b) - r.off }

// Done rejects trailing bytes and returns the reader's verdict on the
// whole payload.
func (r *Reader) Done(ctx, what string) error {
	if r.err == nil && r.remaining() != 0 {
		r.Failf("%s: %d trailing bytes", label(ctx, what), r.remaining())
	}
	return r.err
}

func (r *Reader) next(n int, ctx, what, suffix string) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > r.remaining() {
		r.Failf("%s%s: need %d bytes, %d remain", label(ctx, what), suffix, n, r.remaining())
		return nil
	}
	b := r.b[r.off : r.off+n]
	r.off += n
	return b
}

// Take returns the next n bytes.
func (r *Reader) Take(n int, ctx, what string) []byte { return r.next(n, ctx, what, "") }

func (r *Reader) U8(ctx, what string) uint8 {
	if b := r.next(1, ctx, what, ""); b != nil {
		return b[0]
	}
	return 0
}

func (r *Reader) u16(ctx, what, suffix string) uint16 {
	if b := r.next(2, ctx, what, suffix); b != nil {
		return binary.BigEndian.Uint16(b)
	}
	return 0
}

func (r *Reader) u32(ctx, what, suffix string) uint32 {
	if b := r.next(4, ctx, what, suffix); b != nil {
		return binary.BigEndian.Uint32(b)
	}
	return 0
}

func (r *Reader) U32(ctx, what string) uint32 { return r.u32(ctx, what, "") }
func (r *Reader) I32(ctx, what string) int32  { return int32(r.u32(ctx, what, "")) }

// Uvarint reads an unsigned varint.
func (r *Reader) Uvarint(ctx, what string) uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.Failf("%s: bad varint, %d bytes remain", label(ctx, what), r.remaining())
		return 0
	}
	r.off += n
	return v
}

// Count16 reads a u16 element count and rejects it when even elements of
// the minimum encoded size elemMin (at least 1) could not fit in the
// remaining payload. Count32 and CountVar are the same for u32 and varint
// counts; dividing instead of multiplying keeps a hostile count from
// overflowing.
func (r *Reader) Count16(elemMin int, ctx, what string) int {
	return r.count(uint64(r.u16(ctx, what, " count")), elemMin, ctx, what)
}

func (r *Reader) Count32(elemMin int, ctx, what string) int {
	return r.count(uint64(r.u32(ctx, what, " count")), elemMin, ctx, what)
}

func (r *Reader) CountVar(elemMin int, ctx, what string) int {
	return r.count(r.Uvarint(ctx, what), elemMin, ctx, what)
}

func (r *Reader) count(n uint64, elemMin int, ctx, what string) int {
	if r.err != nil {
		return 0
	}
	if n > uint64(r.remaining()/elemMin) {
		r.Failf("%s count %d exceeds remaining %d bytes", label(ctx, what), n, r.remaining())
		return 0
	}
	return int(n)
}

// Bytes16 reads a u16-length-prefixed byte string and BytesVar a
// varint-length one; Str16 copies the first into a string.
func (r *Reader) Bytes16(ctx, what string) []byte {
	return r.next(int(r.u16(ctx, what, " length")), ctx, what, "")
}

func (r *Reader) BytesVar(ctx, what string) []byte {
	// Capped so the length stays a valid int everywhere; no payload is
	// that long, so next refuses it all the same.
	n := min(r.Uvarint(ctx, what), math.MaxInt32)
	return r.next(int(n), ctx, what, "")
}

func (r *Reader) Str16(ctx, what string) string { return string(r.Bytes16(ctx, what)) }
