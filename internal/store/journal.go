package store

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"whereru/internal/frame"
	"whereru/internal/iofault"
	"whereru/internal/simtime"
)

// The sweep journal is the collection pipeline's crash-safety mechanism:
// an append-only file that gains one checksummed, length-framed segment
// per completed sweep, fsynced before the pipeline moves on. A crashed
// run resumes by replaying the journal's complete segments into a fresh
// store and continuing the schedule from the first unswept day; a tail
// torn by the crash fails its checksum (or its framing) and is dropped.
//
// File layout:
//
//	magic "WRJL" | version u16
//	per segment, one internal/frame frame:
//	  payloadLen u32 | payload | crc32c(payload) u32
//	payload:
//	  kind u8 (0 = sweep, 1 = missing day)
//	  day i32
//	  kind 0 only:
//	    stats 4×u32 (domains, failed, nxdomain, unreachable)
//	    the measurement list, sorted by domain (codec.go: a host-set
//	    table, then front-coded names with set numbers and apex addresses)
//
// Older journals are refused by name — version 1 spelled each config
// out, version 2 also journaled the retry counters — because a journal is
// crash-recovery scratch, finished by the build that wrote it.

const (
	journalMagic   = "WRJL"
	journalVersion = 3
	journalHdrLen  = 6

	segSweep   = 0
	segMissing = 1
)

// JournalStats is the record of what one sweep measured: how many domains
// it swept, how many failed, answered NXDOMAIN, or had a delegation none
// of whose name-server hosts resolved (unreachable, not failed). It is a
// function of the measured answers, so it is the same however the sweep
// was scheduled.
type JournalStats struct {
	Domains, Failed, NXDomain, Unreachable int
}

// JournalSweep is one journaled schedule day: either a completed sweep
// with its measurements, or a missing-day marker (a scheduled day
// deliberately or accidentally not collected).
type JournalSweep struct {
	Day     simtime.Day
	Missing bool
	Stats   JournalStats
	// Measurements holds the sweep's observations, sorted by domain.
	Measurements []Measurement
}

// JournalReplay is the result of scanning a journal: the replayable
// records plus how much of the file was valid.
type JournalReplay struct {
	// Version is the decoded journal format version.
	Version int
	// Path is the file scanned, when the scan opened it by name.
	Path   string
	Sweeps []JournalSweep
	// GoodBytes is the length of the valid prefix; TornBytes counts the
	// trailing bytes after it that failed framing or checksum (0 for a
	// clean file).
	GoodBytes int64
	TornBytes int64
}

// Torn reports whether the journal carried a damaged tail.
func (r *JournalReplay) Torn() bool { return r.TornBytes > 0 }

// Journal is an open sweep journal positioned for appending.
type Journal struct {
	f    iofault.File
	path string
	// off is the end of the last durable segment — the rollback point
	// when an append fails partway.
	off int64
	// Sync flushes an appended segment to stable storage; it defaults to
	// the file's fsync and exists as a hook for tests that count or fail
	// durability points.
	Sync func() error
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.path }

// Close closes the underlying file.
func (j *Journal) Close() error { return j.f.Close() }

// CreateJournal creates (or truncates) a journal at path and writes its
// header durably.
func CreateJournal(path string) (*Journal, error) {
	return CreateJournalFS(iofault.OS, path)
}

// CreateJournalFS is CreateJournal with the file I/O routed through
// fsys, so fault injection can exercise the header write.
func CreateJournalFS(fsys iofault.FS, path string) (*Journal, error) {
	f, err := iofault.Create(fsys, path)
	if err != nil {
		return nil, fmt.Errorf("store: journal: %w", err)
	}
	j, err := startJournal(f, path)
	if err != nil {
		f.Close()
	}
	return j, err
}

// startJournal writes the header to the empty file f and makes it
// durable: the one way a journal begins, whether created or found empty.
func startJournal(f iofault.File, path string) (*Journal, error) {
	j := &Journal{f: f, path: path, Sync: f.Sync}
	hdr := binary.BigEndian.AppendUint16([]byte(journalMagic), journalVersion)
	if _, err := f.Write(hdr); err != nil {
		return nil, fmt.Errorf("store: journal: writing header: %w", err)
	}
	if err := j.Sync(); err != nil {
		return nil, fmt.Errorf("store: journal: syncing header: %w", err)
	}
	j.off = journalHdrLen
	return j, nil
}

// checkJournalHeader validates the file header for every reader of the
// format: the scanner, the tailer, fsck.
func checkJournalHeader(hdr []byte) error {
	if got := string(hdr[:4]); got != journalMagic {
		return fmt.Errorf("store: journal: bad magic %q", got)
	}
	if v := binary.BigEndian.Uint16(hdr[4:]); v != journalVersion {
		return refuseVersion("journal", v, journalVersion, "finish or resume it with the build that wrote it")
	}
	return nil
}

// OpenJournal opens the journal at path for appending, creating it fresh
// when absent. Every segment is length- and checksum-verified; a torn
// tail is truncated away in place so subsequent appends extend a valid
// file. The returned replay lists the surviving records — Day, Missing
// and Stats, no Measurements: an appender's memory is one segment, like
// every reader's — and TornBytes when a tail was dropped (callers should
// log that).
func OpenJournal(path string) (*Journal, *JournalReplay, error) {
	return ResumeJournalFS(iofault.OS, path, nil)
}

// ResumeJournalFS is OpenJournal with the file I/O routed through fsys
// and, for a resuming collector, the surviving segments applied to into
// (when there is one) as ReplayJournalFile applies them.
func ResumeJournalFS(fsys iofault.FS, path string, into *Store) (_ *Journal, _ *JournalReplay, err error) {
	f, err := fsys.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	defer func() {
		if err != nil {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	size := st.Size()
	if size > 0 && size < journalHdrLen {
		// Shorter than the header: a crash tore the journal's very
		// creation. Nothing could have been journaled yet, so reset to
		// empty and write a fresh header below. (A full-size file with a
		// wrong header stays an error — that is a foreign file, not a
		// torn one.)
		if err := f.Truncate(0); err != nil {
			return nil, nil, fmt.Errorf("store: journal: resetting torn header: %w", err)
		}
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, nil, fmt.Errorf("store: journal: %w", err)
		}
		size = 0
	}
	if size == 0 {
		j, err := startJournal(f, path)
		if err != nil {
			return nil, nil, err
		}
		return j, &JournalReplay{GoodBytes: journalHdrLen}, nil
	}
	replay, err := scanJournal(f, into, false)
	if err != nil {
		return nil, nil, err
	}
	if replay.Torn() {
		if err := f.Truncate(replay.GoodBytes); err != nil {
			return nil, nil, fmt.Errorf("store: journal: truncating torn tail: %w", err)
		}
		// The truncation must be durable before new segments land after
		// it: otherwise a second crash can resurrect the torn bytes
		// underneath a fresh segment's framing.
		if err := f.Sync(); err != nil {
			return nil, nil, fmt.Errorf("store: journal: syncing truncated tail: %w", err)
		}
	}
	if _, err := f.Seek(replay.GoodBytes, io.SeekStart); err != nil {
		return nil, nil, fmt.Errorf("store: journal: %w", err)
	}
	return &Journal{f: f, path: path, Sync: f.Sync, off: replay.GoodBytes}, replay, nil
}

// AppendSweep encodes rec as one checksummed segment, appends it and
// fsyncs, so the sweep is durable before the pipeline moves to the next
// day. Measurements are normalized and sorted by domain first, making
// the journal's bytes deterministic regardless of worker interleaving.
//
// A failed append — a short write, a full disk, a failed fsync — rolls
// the file back to the end of the last durable segment before
// returning, so the journal stays clean and the same Journal (or a
// reopened one) can retry or resume once the condition clears. The
// returned error wraps the cause (e.g. syscall.ENOSPC), letting callers
// distinguish a full disk from torn hardware.
func (j *Journal) AppendSweep(rec JournalSweep) error {
	// The segment is built in place: one buffer, the payload never
	// copied into its frame.
	var e encoder
	e.Begin()
	encodeJournalPayload(&e, rec)
	seg, err := e.Finish(frame.MaxPayload)
	if err != nil {
		return fmt.Errorf("store: journal: segment for %s: %w", rec.Day, err)
	}
	if _, err := j.f.Write(seg); err != nil {
		j.rollback()
		return fmt.Errorf("store: journal: appending %s: %w", rec.Day, err)
	}
	if err := j.Sync(); err != nil {
		j.rollback()
		return fmt.Errorf("store: journal: syncing %s: %w", rec.Day, err)
	}
	j.off += int64(len(seg))
	return nil
}

// rollback drops a partially appended segment, restoring the file to
// the end of the last durable one. Best-effort: if the disk is failing
// hard enough that even the truncate cannot land, the checksummed
// framing still fences the torn bytes off at the next open.
func (j *Journal) rollback() {
	if err := j.f.Truncate(j.off); err != nil {
		return
	}
	j.f.Seek(j.off, io.SeekStart)
	j.f.Sync()
}

func encodeJournalPayload(e *encoder, rec JournalSweep) {
	if rec.Missing {
		e.U8(segMissing)
		e.I32(int32(rec.Day))
	} else {
		e.U8(segSweep)
		e.I32(int32(rec.Day))
		for _, v := range []int{rec.Stats.Domains, rec.Stats.Failed, rec.Stats.NXDomain, rec.Stats.Unreachable} {
			e.Uint32(v, "", "sweep stat")
		}
		ms := append([]Measurement(nil), rec.Measurements...)
		sort.Slice(ms, func(i, k int) bool { return ms[i].Domain < ms[k].Domain })
		e.measurements(ms)
	}
}

// DecodeJournal scans journal bytes from r: it validates the header,
// then reads segments until the input ends or a segment fails framing,
// checksum or decoding. Damage never yields an error — it ends the valid
// prefix, and the remaining input is counted into TornBytes. The error
// is non-nil only for an unreadable or mismatched header.
func DecodeJournal(r io.Reader) (*JournalReplay, error) {
	return scanJournal(r, nil, true)
}

// scanJournal is the one loop over a journal: header, then segment after
// segment, each outcome accounted into GoodBytes or TornBytes. A valid
// segment is recorded in the replay — with its measurements only when
// keep is set — and applied to st when there is one.
func scanJournal(r io.Reader, st *Store, keep bool) (*JournalReplay, error) {
	var hdr [journalHdrLen]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, corrupt("journal: reading header: %v", err)
	}
	if err := checkJournalHeader(hdr[:]); err != nil {
		return nil, err
	}
	replay := &JournalReplay{Version: journalVersion, GoodBytes: journalHdrLen}
	var sc journalScanner
	for {
		n, err := sc.next(r, frame.MaxPayload, keep)
		if err == io.EOF {
			return replay, nil
		}
		if err != nil {
			// Torn or corrupt from here on: everything already consumed
			// for this segment plus whatever follows is unrecoverable.
			rest, _ := io.Copy(io.Discard, r)
			replay.TornBytes = n + rest
			return replay, nil
		}
		replay.Sweeps = append(replay.Sweeps, sc.rec)
		replay.GoodBytes += n
		if st != nil {
			sc.apply(st)
		}
	}
}

// journalScanner reads and walks one segment at a time, in the only
// buffer a scan needs: the payload lives in buf, and the domain and host
// names a walk hands out are views into it, valid until the following
// next. A scan's memory is therefore its largest segment, however long
// the journal; what outlives a segment is what a sink copied.
type journalScanner struct {
	buf     frame.Buffer
	payload []byte       // the segment rec describes, verified in full
	rec     JournalSweep // Measurements only when next was told to keep them
	r       byteReader
	it      measurementIter
}

// next reads the next segment from r — the one place a journal's frames
// are read — refusing payloads over max, and walks all of it: nothing is
// reported valid, kept or applied on the strength of a prefix. It returns
// the bytes taken from r and io.EOF at a clean end, a *frame.Error for a
// bad frame, or a "store: corrupt:" error for a checksum-valid payload
// that does not decode.
func (sc *journalScanner) next(r io.Reader, max int, keep bool) (int64, error) {
	payload, n, err := sc.buf.Read(r, max)
	if err != nil {
		return n, err
	}
	sc.payload = payload
	sc.begin()
	if keep && !sc.rec.Missing {
		sc.rec.Measurements = sc.r.measurements(&sc.it, sc.rec.Day)
	}
	for sc.r.nextMeasurement(&sc.it) {
	}
	sc.r.Done("journal", "segment")
	return n, sc.r.failure()
}

// begin decodes the current payload up to its measurement list.
func (sc *journalScanner) begin() {
	sc.r = byteReader{frame.NewReader(sc.payload)}
	sc.rec, sc.it.left = JournalSweep{}, 0
	rec := &sc.rec
	kind := sc.r.U8("", "segment kind")
	rec.Day = simtime.Day(sc.r.I32("", "sweep day"))
	switch kind {
	case segMissing:
		rec.Missing = true
	case segSweep:
		for _, p := range []*int{&rec.Stats.Domains, &rec.Stats.Failed, &rec.Stats.NXDomain, &rec.Stats.Unreachable} {
			v := sc.r.U32("", "sweep stat")
			if v > math.MaxInt32 {
				sc.r.Failf("sweep stat %d implausibly large", v)
			}
			*p = int(v)
		}
		sc.r.beginMeasurements(&sc.it, len(sc.payload))
	default:
		sc.r.Failf("journal: unknown segment kind %d", kind)
	}
}

// apply walks the segment next verified a second time, into st, making
// the mutations a live sweep makes in the order it makes them, so store
// generations match a live run's.
func (sc *journalScanner) apply(st *Store) {
	sc.begin()
	if sc.rec.Missing {
		st.MarkMissingSweep(sc.rec.Day)
		return
	}
	st.BeginSweep(sc.rec.Day)
	for sc.r.nextMeasurement(&sc.it) {
		st.addScratch(sc.it.domain, sc.rec.Day, &sc.it.cfg)
	}
}

// VerifyJournal scans the journal file at path without opening it for
// appending, keeping every record and every measurement in memory: the
// oracle of the tests and the workbench, called from no product path.
func VerifyJournal(path string) (*JournalReplay, error) {
	return scanJournalFile(iofault.OS, path, nil, true)
}

// ReplayJournalFile is VerifyJournal for a reader that wants the journal
// in a store, not in memory: each segment is applied to st straight from
// the scan buffer once all of it has been verified — a damaged segment
// leaves no trace — and the replay's records carry Day, Missing and Stats
// but no Measurements. st ends up as applying VerifyJournal's records in
// order would leave it. A nil st only validates (fsck).
func ReplayJournalFile(path string, st *Store) (*JournalReplay, error) {
	return scanJournalFile(iofault.OS, path, st, false)
}

func scanJournalFile(fsys iofault.FS, path string, st *Store, keep bool) (*JournalReplay, error) {
	f, err := fsys.OpenFile(path, os.O_RDONLY, 0)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	replay, err := scanJournal(f, st, keep)
	if err == nil {
		replay.Path = path
	}
	return replay, err
}

// RepairJournalFS truncates the journal at path to its valid prefix,
// dropping a torn tail, and reports the replay after repair. The file I/O
// is routed through fsys, so the chaos matrix can crash the repair itself.
func RepairJournalFS(fsys iofault.FS, path string) (*JournalReplay, error) {
	j, replay, err := ResumeJournalFS(fsys, path, nil)
	if err != nil {
		return nil, err
	}
	return replay, j.Close()
}
