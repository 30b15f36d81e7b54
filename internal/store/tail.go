package store

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"whereru/internal/frame"
)

// Tailer follows a WRJL journal file as it grows, decoding each segment
// once it is completely and verifiably on disk — `tail -f` with the
// journal's framing and checksum rules. It is the input side of follow
// mode: the serve watcher and `rustore tail` both drain one.
//
// A frame that is only partially visible (the writer is mid-append, or a
// crashed writer left a torn tail that its resuming successor will
// truncate away) is simply not yet available: Next keeps polling until
// the bytes at the current offset become a complete, checksum-valid
// segment. The file shrinking below the tailer's offset, by contrast, is
// a real error — every offset the tailer advances past was a durable,
// CRC-valid segment, so truncation below it means the file is not the
// journal the tailer was following.
type Tailer struct {
	f    *os.File
	path string
	off  int64
	// poll is the interval at which Next re-examines the file (default
	// 200ms).
	poll  time.Duration
	hdrOK bool
	// sc holds the one frame buffer every poll reuses.
	sc journalScanner
}

// DefaultTailPoll is the default polling interval of a Tailer.
const DefaultTailPoll = 200 * time.Millisecond

// OpenTail opens the journal at path for following, starting at offset.
// Offset 0 (or anything below the 6-byte header) starts at the first
// segment — the header is validated once it exists; an offset returned
// by a prior scan (JournalReplay.GoodBytes) or Tailer.Offset resumes
// after the segments that scan already consumed. The file itself need
// not exist yet if offset is 0; Next waits for it.
func OpenTail(path string, offset int64) (*Tailer, error) {
	t := &Tailer{path: path, off: max(offset, journalHdrLen), poll: DefaultTailPoll, hdrOK: offset >= journalHdrLen}
	if err := t.open(); err != nil && err != errTailWait {
		t.Close()
		return nil, err
	}
	return t, nil
}

// open opens the journal file and validates its header, whichever of the
// two is still outstanding; errTailWait means the file, or its complete
// header, is not there yet.
func (t *Tailer) open() error {
	if t.f == nil {
		f, err := os.Open(t.path)
		if os.IsNotExist(err) && !t.hdrOK {
			return errTailWait // only a tailer starting from the top waits for the file
		}
		if err != nil {
			return fmt.Errorf("store: tail: %w", err)
		}
		t.f = f
	}
	if !t.hdrOK {
		var hdr [journalHdrLen]byte
		if _, err := t.f.ReadAt(hdr[:], 0); err != nil {
			return errTailWait
		}
		if err := checkJournalHeader(hdr[:]); err != nil {
			return err
		}
		t.hdrOK = true
	}
	return nil
}

// SetPoll overrides the polling interval (intervals <= 0 keep the
// default).
func (t *Tailer) SetPoll(d time.Duration) {
	if d > 0 {
		t.poll = d
	}
}

// Offset returns the end of the last consumed segment: the resume point
// for a successor tailer.
func (t *Tailer) Offset() int64 { return t.off }

// Lag returns how many bytes of journal exist beyond the tailer's
// offset (0 when fully caught up; it counts torn or in-flight bytes
// too, which is exactly what a watcher wants to alert on).
func (t *Tailer) Lag() int64 {
	if t.f == nil {
		return 0
	}
	st, err := t.f.Stat()
	if err != nil || st.Size() < t.off {
		return 0
	}
	return st.Size() - t.off
}

// Close releases the underlying file.
func (t *Tailer) Close() error {
	if t.f == nil {
		return nil
	}
	return t.f.Close()
}

// errTailWait is the internal "not yet" signal: the bytes needed are not
// on disk (or not valid) yet.
var errTailWait = fmt.Errorf("store: tail: waiting for data")

// Next blocks until the next complete segment is available and returns
// it, or fails with the context's error when ctx ends first. The file is
// looked at before the context is: with a ctx that has already ended, Next
// is a try that never waits (core.FoldReplay drains a known prefix so).
func (t *Tailer) Next(ctx context.Context) (JournalSweep, error) {
	for {
		rec, err := t.tryNext()
		if err == nil {
			return rec, nil
		}
		if err != errTailWait {
			return JournalSweep{}, err
		}
		select {
		case <-ctx.Done():
			return JournalSweep{}, ctx.Err()
		case <-time.After(t.poll):
		}
	}
}

// tryNext attempts to decode one segment at the current offset without
// blocking: errTailWait means try again later.
func (t *Tailer) tryNext() (JournalSweep, error) {
	var zero JournalSweep
	if err := t.open(); err != nil {
		return zero, err
	}
	st, err := t.f.Stat()
	if err != nil {
		return zero, fmt.Errorf("store: tail: %w", err)
	}
	size := st.Size()
	if size < t.off {
		return zero, fmt.Errorf("store: tail: journal truncated to %d bytes below consumed offset %d", size, t.off)
	}
	// The scanner every other reader uses, over the bytes present right
	// now and capped by how many that is: a frame announcing more is
	// refused at its length prefix, so polling a half-written or torn tail
	// costs four bytes, not the tail. Whatever the frame layer refuses —
	// that, a garbage length, a bad checksum in a tail the resuming writer
	// will truncate away — is simply not ours to consume yet.
	avail := size - t.off
	n, err := t.sc.next(io.NewSectionReader(t.f, t.off, avail), int(min(frame.MaxPayload, avail-8)), true)
	var fe *frame.Error
	if err == io.EOF || errors.As(err, &fe) {
		return zero, errTailWait
	}
	if err != nil {
		// Checksum-valid but undecodable is real corruption, not a race.
		return zero, err
	}
	t.off += n
	return t.sc.rec, nil
}
