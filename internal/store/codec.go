package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"sort"

	"whereru/internal/frame"
	"whereru/internal/simtime"
)

// The on-disk format (version 3) is a sequence of length-framed,
// CRC32C-checksummed sections:
//
//	magic "WRST" | version u16
//	section: sweep days      (u32 count | i32 each)
//	section: missing days    (u32 count | i32 each)
//	section: domain count    (u32)
//	per domain, one section:
//	  name | epochCount u32
//	    per epoch: from i32 | lastSeen i32 | failed u8
//	      nsHostCount u16 | hosts | nsAddrCount u16 | addrs(4B) |
//	      apexAddrCount u16 | addrs(4B) | mxHostCount u16 | hosts
//
// where a section is one internal/frame frame:
// `payloadLen u32 | payload | crc32c(payload) u32`.
// Strings are u16-length-prefixed; addresses are IPv4 (the simulation's
// measurement plane is v4-only; AAAA support in the DNS layer is for
// protocol completeness).
//
// The framing makes the decoder truncation-tolerant: every complete,
// checksum-valid domain record in a torn file is recoverable
// (ReadRecover), and every count field is validated against the bytes
// actually present before anything is allocated. Version 1 (no MX
// section) and version 2 files — the unframed legacy stream — are still
// readable.
//
// The decoder feeds the columnar store directly: a domain record's
// epochs are appended to the epoch columns and its configs interned from
// views into the section payload, so reading a paper-scale file never
// materializes per-epoch structs — the only allocations proportional to
// content are for configurations never seen before.

const (
	magic   = "WRST"
	version = 3

	// maxHeaderSectionBytes bounds the sweep/missing/count sections; even
	// daily sweeps over a century fit in well under a megabyte.
	maxHeaderSectionBytes = 1 << 20
	// maxDomainRecordBytes bounds one domain's record. A record an
	// attacker-shaped length field claims to be larger is corrupt by
	// definition, so the decoder never allocates more than this for it.
	maxDomainRecordBytes = 1 << 24
)

// encoder is the store's payload writer: internal/frame's primitives plus
// the layouts the store's three surfaces share (day lists, configs,
// measurement lists). A failure latches in the frame.Writer; whoever
// finishes the payload reports it under the "store: encode:" prefix.
type encoder struct{ frame.Writer }

func (e *encoder) strs(ss []string, ctx, what string) {
	e.Count16(len(ss), ctx, what)
	for _, s := range ss {
		e.Str16(s, ctx, what)
	}
}

func (e *encoder) addrs(a []netip.Addr, ctx, what string) {
	e.Count16(len(a), ctx, what)
	for _, addr := range a {
		b := addr.As4()
		e.Raw(b[:])
	}
}

func (e *encoder) days(ds []simtime.Day, what string) {
	e.Count32(len(ds), "", what)
	for _, d := range ds {
		e.I32(int32(d))
	}
}

// config writes the failed flag and the four record sets — the layout
// shared by store epochs and journal measurements.
func (e *encoder) config(c Config, domain string) {
	if c.Failed {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.strs(c.NSHosts, domain, "NS host")
	e.addrs(c.NSAddrs, domain, "NS addr")
	e.addrs(c.ApexAddrs, domain, "apex addr")
	e.strs(c.MXHosts, domain, "MX host")
}

// measurements writes the measurement list the journal and the batch
// codec share — count u32 | per measurement: domain str | config — in
// the order given, normalizing each config in place.
func (e *encoder) measurements(ms []Measurement) {
	e.Count32(len(ms), "", "measurement")
	for _, m := range ms {
		e.Str16(m.Domain, "measurement", "domain")
		e.config(m.Config.Normalize(), m.Domain)
	}
}

// sectionWriter emits the v3 file shape: the magic+version header, then
// one frame per section, each built in place in a buffer reused across
// sections. Store.WriteTo and the map-based oracle in this package's
// tests share it, so the columnar and reference representations cannot
// drift in layout.
type sectionWriter struct {
	bw  *bufio.Writer
	n   int64 // bytes written so far
	err error // first write failure
	e   encoder
}

func newSectionWriter(w io.Writer) *sectionWriter {
	sw := &sectionWriter{bw: bufio.NewWriter(w)}
	sw.write(binary.BigEndian.AppendUint16([]byte(magic), version))
	return sw
}

func (sw *sectionWriter) write(b []byte) {
	if sw.err == nil {
		var n int
		n, sw.err = sw.bw.Write(b)
		sw.n += int64(n)
	}
}

// section writes one section of at most max payload bytes — the limit the
// decoder will hold it to.
func (sw *sectionWriter) section(max int, build func(e *encoder)) error {
	sw.e.Reset()
	sw.e.Begin()
	build(&sw.e)
	b, err := sw.e.Finish(max)
	if err != nil {
		return fmt.Errorf("store: encode: %w", err)
	}
	sw.write(b)
	return sw.err
}

func (sw *sectionWriter) close() (int64, error) {
	if sw.err == nil {
		sw.err = sw.bw.Flush()
	}
	return sw.n, sw.err
}

// WriteTo serializes the store in the version-3 format, reading epochs
// straight out of the columns. The bytes are identical to what the
// pre-columnar representation wrote: interning changes where a config's
// slices live, never their contents, and the encoder only ever sees
// contents.
func (s *Store) WriteTo(w io.Writer) (int64, error) {
	idx, ord, unlock := s.lockedView() // sorted for deterministic output
	defer unlock()
	sw := newSectionWriter(w)
	if err := sw.header(s.sweeps, s.missing, len(idx)); err != nil {
		return sw.n, err
	}
	for i, name := range idx {
		d := ord[i]
		o, n := s.off[d], s.cnt[d]
		err := sw.section(maxDomainRecordBytes, func(e *encoder) {
			e.Str16(name, "", "domain name")
			e.Count32(int(n), name, "epoch")
			for j := uint32(0); j < n; j++ {
				e.I32(int32(s.epochFrom[o+j]))
				e.I32(int32(s.epochLast[o+j]))
				e.config(s.intern.config(s.epochCfg[o+j]), name)
			}
		})
		if err != nil {
			return sw.n, err
		}
	}
	return sw.close()
}

// header writes the three sections ahead of the domain records.
func (sw *sectionWriter) header(sweeps, missing []simtime.Day, domains int) error {
	if err := sw.section(maxHeaderSectionBytes, func(e *encoder) { e.days(sweeps, "sweep") }); err != nil {
		return err
	}
	if err := sw.section(maxHeaderSectionBytes, func(e *encoder) { e.days(missing, "missing sweep") }); err != nil {
		return err
	}
	return sw.section(maxHeaderSectionBytes, func(e *encoder) { e.Count32(domains, "", "domain") })
}

// corrupt builds the decoder's uniform error.
func corrupt(format string, args ...any) error {
	return fmt.Errorf("store: corrupt: "+format, args...)
}

// byteReader is the store's payload reader: internal/frame's bounds-
// checked primitives plus the store's layouts. Every method names its
// field as (ctx, what) and the label is only assembled on failure, so
// the per-epoch decode path allocates nothing for diagnostics.
type byteReader struct{ frame.Reader }

// failure reports the reader's latched error as a store corruption.
func (r *byteReader) failure() error {
	if err := r.Err(); err != nil {
		return corrupt("%v", err)
	}
	return nil
}

// hostsInto decodes a hostname list into dst (capacity reused across
// epochs); the returned entries alias the payload.
func (r *byteReader) hostsInto(dst [][]byte, ctx, what string) [][]byte {
	dst = dst[:0]
	n := r.Count16(2, ctx, what)
	for i := 0; i < n && r.Err() == nil; i++ {
		dst = append(dst, r.Bytes16(ctx, what))
	}
	return dst
}

// addrsInto decodes an address list into dst, growing it only when the
// list does not fit; with a nil dst the result is exactly sized, and nil
// for an empty list.
func (r *byteReader) addrsInto(dst []netip.Addr, ctx, what string) []netip.Addr {
	dst = dst[:0]
	n := r.Count16(4, ctx, what)
	if n > cap(dst) {
		dst = make([]netip.Addr, 0, n)
	}
	for i := 0; i < n; i++ {
		b := r.Take(4, ctx, what)
		if b == nil {
			break
		}
		dst = append(dst, netip.AddrFrom4([4]byte(b)))
	}
	return dst
}

func (r *byteReader) days(what string) []simtime.Day {
	n := r.Count32(4, "", what)
	if n == 0 {
		return nil
	}
	out := make([]simtime.Day, 0, n)
	for i := 0; i < n && r.Err() == nil; i++ {
		out = append(out, simtime.Day(r.I32("", what)))
	}
	return out
}

// configInto decodes a config into the reusable scratch, allocating
// nothing: hostname entries are views into the payload, materialized
// only if the intern table has never seen the config.
func (r *byteReader) configInto(sc *scratchConfig, domain string) {
	sc.failed = r.U8(domain, "failed flag") == 1
	sc.nsHosts = r.hostsInto(sc.nsHosts, domain, "NS host")
	sc.nsAddrs = r.addrsInto(sc.nsAddrs, domain, "NS addr")
	sc.apexAddrs = r.addrsInto(sc.apexAddrs, domain, "apex addr")
	sc.mxHosts = r.hostsInto(sc.mxHosts, domain, "MX host")
}

// measurementIter walks the list encoder.measurements writes — the only
// parser of it — one measurement at a time and without allocating: domain
// and cfg are views into the payload, overwritten by the next step.
type measurementIter struct {
	left   int
	domain []byte
	cfg    scratchConfig
}

func (r *byteReader) beginMeasurements(it *measurementIter) {
	// Minimum measurement: name length (2) + failed (1) + 4 counts (8).
	it.left = r.Count32(11, "", "measurement")
}

// nextMeasurement decodes the next measurement into it; false after the
// last one or at the first failure.
func (r *byteReader) nextMeasurement(it *measurementIter) bool {
	if it.left == 0 || r.Err() != nil {
		return false
	}
	it.left--
	it.domain = r.Bytes16("measurement", "domain")
	r.configInto(&it.cfg, "measurement")
	return r.Err() == nil
}

// measurements materializes the rest of the list, stamping each
// measurement with day: every string and slice is the caller's own.
func (r *byteReader) measurements(it *measurementIter, day simtime.Day) []Measurement {
	ms := make([]Measurement, 0, it.left)
	for r.nextMeasurement(it) {
		ms = append(ms, Measurement{Domain: string(it.domain), Day: day, Config: it.cfg.config()})
	}
	return ms
}

// Recovery reports what a tolerant decode salvaged from a damaged file.
type Recovery struct {
	// Version is the decoded format version.
	Version int
	// Domains is the number of complete domain records decoded;
	// ExpectedDomains is what the header promised.
	Domains, ExpectedDomains int
	// GoodBytes is the length of the prefix that decoded cleanly.
	GoodBytes int64
	// Damaged is set when any part of the file could not be decoded;
	// Reason describes the first damage encountered.
	Damaged bool
	Reason  string
}

// Read deserializes a store written by WriteTo (any format version). It
// is strict: any truncation, checksum mismatch or implausible count
// yields a "store: corrupt:" error.
func Read(src io.Reader) (*Store, error) {
	s, rec, err := decode(src, false)
	if err != nil {
		return nil, err
	}
	if rec.Damaged {
		// Unreachable in strict mode, kept as a backstop.
		return nil, corrupt("%s", rec.Reason)
	}
	return s, nil
}

// ReadRecover is the truncation-tolerant decode: it returns every
// complete, checksum-valid domain record from a torn or bit-flipped
// file, plus a Recovery describing the damage. The error is non-nil
// only when even the header is unreadable.
func ReadRecover(src io.Reader) (*Store, *Recovery, error) {
	return decode(src, true)
}

func decode(src io.Reader, tolerant bool) (*Store, *Recovery, error) {
	var hdr [6]byte
	if _, err := io.ReadFull(src, hdr[:]); err != nil {
		return nil, nil, corrupt("reading header: %v", err)
	}
	if got := string(hdr[:4]); got != magic {
		return nil, nil, fmt.Errorf("store: bad magic %q", got)
	}
	v := binary.BigEndian.Uint16(hdr[4:])
	switch v {
	case 1, 2:
		return decodeLegacy(src, int(v), tolerant)
	case version:
		return decodeV3(src, tolerant)
	default:
		return nil, nil, fmt.Errorf("store: unsupported version %d", v)
	}
}

// ascending validates that decoded day lists are sorted (the in-memory
// invariant every consumer relies on).
func ascending(days []simtime.Day) bool {
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			return false
		}
	}
	return true
}

// truncateRows discards column rows appended past mark: the decoders'
// rollback for a domain record that fails mid-parse (only complete
// records count as recovered).
func (s *Store) truncateRows(mark int) {
	s.epochFrom = s.epochFrom[:mark]
	s.epochLast = s.epochLast[:mark]
	s.epochCfg = s.epochCfg[:mark]
}

// adoptTailRows registers name as owning the nRows rows at the column
// tail. The decoders append one domain's rows contiguously and then
// adopt them, so a failed record never leaves a registered domain
// behind.
func (s *Store) adoptTailRows(name string, nRows int) {
	d := s.newDomain(name)
	s.off[d] = uint32(len(s.epochFrom) - nRows)
	s.cnt[d] = uint32(nRows)
	s.live += int64(nRows)
}

func decodeV3(src io.Reader, tolerant bool) (*Store, *Recovery, error) {
	rec := &Recovery{Version: version}
	s := New()
	off := int64(6) // header already consumed

	damage := func(err error) (*Store, *Recovery, error) {
		if !tolerant {
			return nil, nil, err
		}
		rec.Damaged = true
		rec.Reason = err.Error()
		rec.GoodBytes = off
		s.rebuildNaive()
		return s, rec, nil
	}

	// section reads the next frame into the one buffer the decode keeps
	// (every payload is consumed before the next is read). The caller
	// advances off past it once it counts as part of the clean prefix.
	var buf frame.Buffer
	section := func(max int, what string) ([]byte, int64, error) {
		payload, n, err := buf.Read(src, max)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF // a v3 file never ends between sections
		}
		if err != nil {
			return nil, n, corrupt("%s: %v", what, err)
		}
		return payload, n, nil
	}

	decodeDays := func(what string) ([]simtime.Day, error) {
		payload, n, err := section(maxHeaderSectionBytes, what)
		if err != nil {
			return nil, err
		}
		off += n
		r := byteReader{frame.NewReader(payload)}
		days := r.days(what)
		r.Done(what, "section")
		if r.Err() == nil && !ascending(days) {
			r.Failf("%s days not strictly ascending", what)
		}
		return days, r.failure()
	}

	var err error
	if s.sweeps, err = decodeDays("sweeps"); err != nil {
		return damage(err)
	}
	if s.missing, err = decodeDays("missing sweeps"); err != nil {
		return damage(err)
	}
	countPayload, n, err := section(maxHeaderSectionBytes, "domain count")
	if err != nil {
		return damage(err)
	}
	off += n
	if len(countPayload) != 4 {
		return damage(corrupt("domain count section is %d bytes, want 4", len(countPayload)))
	}
	nDomains := int(binary.BigEndian.Uint32(countPayload))
	rec.ExpectedDomains = nDomains

	var sc scratchConfig
	var br byteReader
	for i := 0; i < nDomains; i++ {
		payload, n, err := section(maxDomainRecordBytes, "domain record")
		if err != nil {
			// The record position is appended only here: a Sprintf per
			// record would be an allocation per domain at paper scale.
			return damage(fmt.Errorf("%v (record %d/%d)", err, i+1, nDomains))
		}
		mark := len(s.epochFrom)
		name, nRows, err := s.decodeDomainRecord(payload, &br, &sc)
		if err != nil {
			return damage(err)
		}
		if _, dup := s.byName[name]; dup {
			s.truncateRows(mark)
			return damage(corrupt("duplicate domain record %q", name))
		}
		off += n
		s.adoptTailRows(name, nRows)
		rec.Domains++
	}
	rec.GoodBytes = off
	s.rebuildNaive()
	return s, rec, nil
}

// decodeDomainRecord parses one framed domain section payload, appending
// its epochs to the column tail (rolled back on error). It returns the
// domain name and the number of rows appended; the caller adopts them.
// r is caller-owned scratch, reset here, so record decode allocates only
// the name string and whatever interning a never-seen config requires.
func (s *Store) decodeDomainRecord(payload []byte, r *byteReader, sc *scratchConfig) (string, int, error) {
	*r = byteReader{frame.NewReader(payload)}
	name := r.Str16("", "domain name")
	// Minimum epoch: from+lastSeen (8) + failed (1) + four empty counts (8).
	nEpochs := r.Count32(17, name, "epoch")
	mark := len(s.epochFrom)
	for j := 0; j < nEpochs; j++ {
		from := simtime.Day(r.I32(name, "epoch from"))
		last := simtime.Day(r.I32(name, "epoch lastSeen"))
		r.configInto(sc, name)
		if r.Err() != nil {
			break
		}
		s.epochFrom = append(s.epochFrom, from)
		s.epochLast = append(s.epochLast, last)
		s.epochCfg = append(s.epochCfg, s.intern.internScratch(sc))
	}
	if r.Done(name, "domain record") != nil {
		s.truncateRows(mark)
		return "", 0, r.failure()
	}
	return name, len(s.epochFrom) - mark, nil
}

// decodeLegacy reads the unframed version 1/2 stream. Counts cannot be
// checked against a section length here, so allocations are capped and
// truncation surfaces as a read error at the point the data runs out.
// Epochs land in the columns exactly as in the v3 path; the transient
// per-epoch Config is tolerable because legacy files predate paper
// scale.
func decodeLegacy(src io.Reader, v int, tolerant bool) (*Store, *Recovery, error) {
	rec := &Recovery{Version: v}
	r := &reader{r: bufio.NewReader(src)}
	s := New()
	nSweeps := int(r.u32())
	for i := 0; i < nSweeps && r.err == nil; i++ {
		s.sweeps = append(s.sweeps, simtime.Day(r.i32()))
	}
	if r.err == nil && !ascending(s.sweeps) {
		r.err = corrupt("sweep days not strictly ascending")
	}
	nDomains := int(r.u32())
	rec.ExpectedDomains = nDomains
	if r.err != nil {
		if tolerant {
			rec.Damaged = true
			rec.Reason = r.err.Error()
			return s, rec, nil
		}
		return nil, nil, r.err
	}
	for i := 0; i < nDomains; i++ {
		name := r.str()
		if _, dup := s.byName[name]; dup && r.err == nil {
			r.err = corrupt("duplicate domain record %q", name)
		}
		nEpochs := int(r.u32())
		mark := len(s.epochFrom)
		for j := 0; j < nEpochs && r.err == nil; j++ {
			from := simtime.Day(r.i32())
			last := simtime.Day(r.i32())
			var c Config
			flags := r.bytes(1)
			if flags != nil {
				c.Failed = flags[0] == 1
			}
			nHosts := int(r.u16())
			for k := 0; k < nHosts && r.err == nil; k++ {
				c.NSHosts = append(c.NSHosts, r.str())
			}
			c.NSAddrs = r.addrs()
			c.ApexAddrs = r.addrs()
			if v >= 2 {
				nMX := int(r.u16())
				for k := 0; k < nMX && r.err == nil; k++ {
					c.MXHosts = append(c.MXHosts, r.str())
				}
			}
			if r.err == nil {
				s.epochFrom = append(s.epochFrom, from)
				s.epochLast = append(s.epochLast, last)
				s.epochCfg = append(s.epochCfg, s.intern.intern(c))
			}
		}
		if r.err != nil {
			// Drop the partially-decoded domain: only complete records
			// count as recovered.
			s.truncateRows(mark)
			if tolerant {
				rec.Damaged = true
				rec.Reason = r.err.Error()
				s.rebuildNaive()
				return s, rec, nil
			}
			return nil, nil, corrupt("decode: %v", r.err)
		}
		s.adoptTailRows(name, len(s.epochFrom)-mark)
		rec.Domains++
	}
	s.rebuildNaive()
	return s, rec, nil
}

// rebuildNaive reconstructs the naive (one-record-per-sweep) count from
// the sweep schedule: each epoch spans the sweeps in [from, lastSeen].
func (s *Store) rebuildNaive() {
	s.naive = 0
	for d := range s.names {
		o, n := s.off[d], s.cnt[d]
		for j := uint32(0); j < n; j++ {
			s.naive += int64(countSweepsIn(s.sweeps, s.epochFrom[o+j], s.epochLast[o+j]))
		}
	}
}

// reader is the legacy streaming decoder.
type reader struct {
	r   *bufio.Reader
	err error
}

func (r *reader) bytes(n int) []byte {
	if r.err != nil {
		return nil
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.err = corrupt("decode: %v", err)
		return nil
	}
	return b
}

func (r *reader) u16() uint16 {
	b := r.bytes(2)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.bytes(4)
	if b == nil {
		return 0
	}
	return binary.BigEndian.Uint32(b)
}

func (r *reader) i32() int32 { return int32(r.u32()) }

func (r *reader) str() string {
	n := int(r.u16())
	b := r.bytes(n)
	return string(b)
}

func (r *reader) addrs() []netip.Addr {
	n := int(r.u16())
	if n == 0 || r.err != nil {
		return nil
	}
	// A legacy count cannot be checked against a payload length, so the
	// allocation grows with the data actually read instead of trusting it.
	out := make([]netip.Addr, 0, min(n, 256))
	for i := 0; i < n; i++ {
		b := r.bytes(4)
		if b == nil {
			return nil
		}
		out = append(out, netip.AddrFrom4([4]byte(b)))
	}
	return out
}

// countSweepsIn counts schedule entries in [from, to].
func countSweepsIn(sweeps []simtime.Day, from, to simtime.Day) int {
	lo := sort.Search(len(sweeps), func(i int) bool { return sweeps[i] >= from })
	hi := sort.Search(len(sweeps), func(i int) bool { return sweeps[i] > to })
	if hi < lo {
		return 0
	}
	return hi - lo
}
