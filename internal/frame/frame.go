// Package frame is the one binary format layer under the store file, the
// sweep journal, the journal tailer and the grid wire. It holds the two
// things every binary surface in this repository is made of:
//
//   - the frame: `u32 payloadLen | payload | u32 crc32c(payload)`,
//     written by Append or in place by Writer.Begin/Finish, read by Read
//     with a typed verdict for every way a frame can be bad;
//   - the payload codec: a big-endian, error-latching Writer and a
//     bounds-checked Reader that validates every length and count against
//     the bytes actually present before anything is allocated.
//
// What a caller does with a bad frame is the caller's policy and stays
// with it: the strict store decoder reports "store: corrupt:", the
// tolerant store decoder and the journal scanner end the valid prefix,
// the tailer waits, the grid drops the connection. Errors from this
// package carry no package prefix; each caller wraps them once at its
// own boundary.
package frame

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// MaxPayload is the payload limit of every surface that has no reason for
// a tighter one: a journal segment, a grid frame, a measurement batch. A
// sweep of every domain the full-scale world holds fits comfortably.
const MaxPayload = 1 << 26

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Verdict says why Read refused a frame.
type Verdict uint8

const (
	// Torn: the input ended (or the read failed) inside the frame.
	Torn Verdict = iota + 1
	// TooLarge: the length prefix announces more than the caller's max.
	// Nothing behind the prefix was read or allocated.
	TooLarge
	// Mismatch: the frame is complete and its checksum is wrong.
	Mismatch
)

// Error is Read's report of a bad frame. A clean end of input is not an
// Error: Read returns a bare io.EOF for it.
type Error struct {
	Verdict Verdict
	// Err says what was wrong; for a torn frame it wraps the read error,
	// so transports can tell a closed connection from a reset one.
	Err error
}

func (e *Error) Error() string { return e.Err.Error() }
func (e *Error) Unwrap() error { return e.Err }

// Append appends payload to dst as one frame: Writer.Begin/Finish for a
// payload that already exists.
func Append(dst, payload []byte, max int) ([]byte, error) {
	w := Writer{buf: dst}
	w.Begin()
	w.Raw(payload)
	if _, err := w.Finish(max); err != nil {
		return dst, err
	}
	return w.buf, nil
}

// Read reads one frame from r and verifies its checksum. It returns the
// payload, the number of bytes it took from r — on failure too, so a
// scanner can account for a torn tail by what is really on disk — and
// io.EOF when r ends cleanly before the frame starts, or an *Error.
//
// It is the one-shot form of Buffer.Read: the payload is the caller's.
func Read(r io.Reader, max int) (payload []byte, consumed int64, err error) {
	return new(Buffer).Read(r, max)
}

// Buffer reads frames into one buffer the caller keeps, so a scanner over
// many frames allocates for the largest of them once. The zero value is
// ready for use.
type Buffer struct {
	b   []byte
	hdr [4]byte // here, not on Read's stack: a Reader behind an interface makes it escape
}

// Read is the package's Read into the retained buffer: the payload it
// returns is a view of that buffer, valid until the next Read.
//
// The announced length is never trusted for an allocation: it is checked
// against max first (a max below zero refuses every frame), and a buffer
// too small for it grows only as the bytes actually arrive.
func (b *Buffer) Read(r io.Reader, max int) (payload []byte, consumed int64, err error) {
	n, err := io.ReadFull(r, b.hdr[:])
	if err != nil {
		if n == 0 && err == io.EOF {
			return nil, 0, io.EOF
		}
		return nil, int64(n), &Error{Torn, fmt.Errorf("torn frame: %d of 4 length bytes: %w", n, err)}
	}
	size := binary.BigEndian.Uint32(b.hdr[:])
	if int64(size) > int64(max) {
		return nil, 4, &Error{TooLarge, fmt.Errorf("frame length %d exceeds limit %d", size, max)}
	}
	// Payload and checksum arrive in one read into one buffer.
	n, err = b.fill(r, int(size)+4)
	consumed = 4 + int64(n)
	if err != nil {
		return nil, consumed, &Error{Torn, fmt.Errorf("torn frame: %d of %d bytes: %w", consumed, 8+int64(size), err)}
	}
	payload = b.b[:size:size]
	if got, want := crc32.Checksum(payload, castagnoli), binary.BigEndian.Uint32(b.b[size:]); got != want {
		return nil, consumed, &Error{Mismatch, fmt.Errorf("frame checksum mismatch (%08x != %08x)", got, want)}
	}
	return payload, consumed, nil
}

// fill reads exactly n bytes into the buffer without trusting n for the
// allocation: a buffer too small is replaced by an exact-size one for a
// small n and otherwise doubles each time it has been filled, so a huge
// claimed length against a short input costs memory bounded by what
// arrived. It returns how many bytes did arrive; inside a frame no end
// of input is clean.
func (b *Buffer) fill(r io.Reader, n int) (have int, err error) {
	const step = 1 << 16
	for have < n && err == nil {
		if have == cap(b.b) {
			grown := make([]byte, min(n, max(2*have, step)))
			copy(grown, b.b[:have])
			b.b = grown
		}
		b.b = b.b[:min(n, cap(b.b))]
		var m int
		m, err = io.ReadFull(r, b.b[have:])
		have += m
	}
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return have, err
}
