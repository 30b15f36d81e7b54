package store

import (
	"bufio"
	"encoding/binary"
	"errors"
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
// actually present before anything is allocated. Versions 1 and 2, the
// unframed stream before it, are refused by name (refuseVersion).
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

// config writes a store epoch's failed flag and its four record sets.
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

// The measurement list the journal and the batch codec share is built
// from what a sweep repeats: a few dozen host sets — NS hosts with their
// addresses, MX hosts — and sorted names sharing long prefixes. It
// decodes alone, with no reference to another segment or batch:
//
//	set table: n | per set: hosts | addrs
//	count | per measurement: shared | suffix | nsSet<<1|failed | mxSet | apex addrs
//
// Every number is a uvarint; the name is the previous one's first shared
// bytes plus the uvarint-length suffix; hosts is `n | per host: length |
// bytes`, addrs `n | 4 bytes each` (none for an MX set). The table lists
// its sets normalized and in first-use order, so the bytes are a function
// of the measurements and their order alone.
//
// A set number is a byte standing for a whole set, a name a few bytes
// standing for up to maxNameBytes, so a list's weight — every
// measurement's name, apex addresses and numbered sets, as weightOf
// weighs them decoded — is bounded by maxExpansion times its bytes. The
// encoder refuses a list over the bound and the decoder stops where one
// crosses it, so a small hostile list cannot demand a large decode.
const (
	maxNameBytes = 255 // a DNS name's limit
	maxExpansion = 64
	refWeight    = 16 // a decoded hostname's header or an address
)

// errHeavyList is the encoder's refusal of a list over the bound.
var errHeavyList = errors.New("measurement list too heavy")

// weightOf weighs hosts and addrs as they are materialized: each host its
// bytes plus a header, each address a fixed size.
func weightOf[S string | []byte](hosts []S, addrs []netip.Addr) int {
	w := refWeight * len(addrs)
	for _, h := range hosts {
		w += refWeight + len(h)
	}
	return w
}

// measurements writes the measurement list in the order given,
// normalizing each config in place.
func (e *encoder) measurements(ms []Measurement) {
	sets := setTable{index: map[string]uint64{}}
	var list encoder // behind the table, which it fills
	list.Uvarint(uint64(len(ms)))
	prev, weight := "", 0
	for i := range ms {
		m := &ms[i]
		if len(m.Domain) > maxNameBytes {
			e.Failf("measurement: name %q is %d bytes, over %d", m.Domain, len(m.Domain), maxNameBytes)
		}
		shared := 0
		for shared < min(len(prev), len(m.Domain)) && prev[shared] == m.Domain[shared] {
			shared++
		}
		list.Uvarint(uint64(shared))
		list.StrVar(m.Domain[shared:])
		ns, mx := sets.number(m.Config.NSHosts, m.Config.NSAddrs)<<1, sets.number(m.Config.MXHosts, nil)
		if m.Config.Failed {
			ns |= 1
		}
		list.Uvarint(ns)
		list.Uvarint(mx)
		sortAddrs(m.Config.ApexAddrs)
		list.addrsVar(m.Config.ApexAddrs)
		weight += len(m.Domain) + refWeight*len(m.Config.ApexAddrs) + sets.weights[ns>>1] + sets.weights[mx]
		prev = m.Domain
	}
	start := len(e.Bytes())
	e.Uvarint(uint64(len(sets.weights)))
	e.Raw(sets.table.Bytes())
	e.Raw(list.Bytes())
	if n := len(e.Bytes()) - start; weight > maxExpansion*n {
		e.Failf("%w: %d bytes weigh %d, over %d× their size", errHeavyList, n, weight, maxExpansion)
	}
}

func (e *encoder) addrsVar(a []netip.Addr) {
	e.Uvarint(uint64(len(a)))
	for _, addr := range a {
		b := addr.As4()
		e.Raw(b[:])
	}
}

// setTable numbers the distinct host sets of one measurement list in
// first-use order, keyed by their encoding.
type setTable struct {
	index   map[string]uint64
	weights []int   // every set's weightOf, by number
	table   encoder // every set as written, in first-use order
	key     encoder
}

// number returns the number of the set (hosts, addrs), listing it on first
// sight. Every listed set is sorted, so one found as given is sorted too;
// one not found is sorted in place — Config.Normalize's contract — and
// looked up again. A list is thus normalized once per distinct spelling of
// a set, not once per measurement.
func (t *setTable) number(hosts []string, addrs []netip.Addr) uint64 {
	i, ok := t.find(hosts, addrs)
	if !ok {
		sort.Strings(hosts)
		sortAddrs(addrs)
		if i, ok = t.find(hosts, addrs); !ok {
			i = uint64(len(t.weights))
			t.index[string(t.key.Bytes())] = i
			t.weights = append(t.weights, weightOf(hosts, addrs))
			t.table.Raw(t.key.Bytes())
		}
	}
	return i
}

// find encodes the set into t.key and looks it up.
func (t *setTable) find(hosts []string, addrs []netip.Addr) (uint64, bool) {
	t.key.Reset()
	t.key.Uvarint(uint64(len(hosts)))
	for _, h := range hosts {
		t.key.StrVar(h)
	}
	t.key.addrsVar(addrs)
	i, ok := t.index[string(t.key.Bytes())]
	return i, ok
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

// appendAddrs decodes n addresses onto dst.
func (r *byteReader) appendAddrs(dst []netip.Addr, n int, ctx, what string) []netip.Addr {
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
	sc.nsAddrs = r.appendAddrs(sc.nsAddrs[:0], r.Count16(4, domain, "NS addr"), domain, "NS addr")
	sc.apexAddrs = r.appendAddrs(sc.apexAddrs[:0], r.Count16(4, domain, "apex addr"), domain, "apex addr")
	sc.mxHosts = r.hostsInto(sc.mxHosts, domain, "MX host")
}

// measurementIter walks the list encoder.measurements writes — its only
// parser — one measurement at a time, allocating nothing once its scratch
// has grown: domain is built in one reused buffer, cfg's hosts and
// addresses are views into the set table, overwritten by the next step.
type measurementIter struct {
	left   int
	budget int // weight the rest of the list may still decode to
	domain []byte
	cfg    scratchConfig

	sets  []setSpan    // the set table, as ranges of hosts and addrs
	hosts [][]byte     // every set's hosts, one after another
	addrs []netip.Addr // every set's addresses, one after another
}

// setSpan is one table set: hosts[h0:h1] and addrs[a0:a1], weighing w.
type setSpan struct{ h0, h1, a0, a1, w int }

// beginMeasurements reads a list's set table and count, holding its weight
// to maxExpansion times the payloadLen bytes the list lies in.
func (r *byteReader) beginMeasurements(it *measurementIter, payloadLen int) {
	it.domain, it.sets, it.hosts, it.addrs = it.domain[:0], it.sets[:0], it.hosts[:0], it.addrs[:0]
	it.budget = maxExpansion * payloadLen
	// Minimum set: its two counts.
	n := r.CountVar(2, "", "set")
	for i := 0; i < n && r.Err() == nil; i++ {
		h0, a0 := len(it.hosts), len(it.addrs)
		hosts := r.CountVar(1, "set", "host")
		for j := 0; j < hosts && r.Err() == nil; j++ {
			it.hosts = append(it.hosts, r.BytesVar("set", "host"))
		}
		it.addrs = r.appendAddrs(it.addrs, r.CountVar(4, "set", "addr"), "set", "addr")
		it.sets = append(it.sets, setSpan{h0, len(it.hosts), a0, len(it.addrs), weightOf(it.hosts[h0:], it.addrs[a0:])})
	}
	// Minimum measurement: shared, suffix length, NS set, MX set and apex
	// count, a byte each.
	it.left = r.CountVar(5, "", "measurement")
}

// nextMeasurement decodes the next measurement into it; false after the
// last one or at the first failure.
func (r *byteReader) nextMeasurement(it *measurementIter) bool {
	if it.left == 0 || r.Err() != nil {
		return false
	}
	it.left--
	shared := r.Uvarint("measurement", "shared prefix")
	suffix := r.BytesVar("measurement", "name suffix")
	ns := r.Uvarint("measurement", "NS set")
	mx := r.Uvarint("measurement", "MX set")
	it.cfg.apexAddrs = r.appendAddrs(it.cfg.apexAddrs[:0], r.CountVar(4, "measurement", "apex addr"), "measurement", "apex addr")
	if shared > uint64(len(it.domain)) {
		r.Failf("measurement: shared prefix %d longer than the previous name (%d bytes)", shared, len(it.domain))
	} else if name := int(shared) + len(suffix); name > maxNameBytes {
		r.Failf("measurement: name of %d bytes, over %d", name, maxNameBytes)
	}
	if ns>>1 >= uint64(len(it.sets)) || mx >= uint64(len(it.sets)) {
		r.Failf("measurement: NS set %d / MX set %d outside a table of %d", ns>>1, mx, len(it.sets))
	}
	if r.Err() != nil {
		return false
	}
	n, m := it.sets[ns>>1], it.sets[mx]
	if it.budget -= int(shared) + len(suffix) + refWeight*len(it.cfg.apexAddrs) + n.w + m.w; it.budget < 0 {
		r.Failf("measurement: list weighs over %d× its payload", maxExpansion)
		return false
	}
	it.domain = append(it.domain[:shared], suffix...)
	it.cfg.failed = ns&1 == 1
	it.cfg.nsHosts = it.hosts[n.h0:n.h1:n.h1]
	it.cfg.nsAddrs = it.addrs[n.a0:n.a1:n.a1]
	it.cfg.mxHosts = it.hosts[m.h0:m.h1:m.h1]
	return true
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

// Read deserializes a store written by WriteTo. It is strict: any
// truncation, checksum mismatch or implausible count yields a
// "store: corrupt:" error.
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
	if v := binary.BigEndian.Uint16(hdr[4:]); v != version {
		return nil, nil, refuseVersion("file", v, version, "save it once with an earlier build, which writes version 3")
	}
	return decodeV3(src, tolerant)
}

// refuseVersion is the one rule for on-disk versions, store file and
// journal alike: read the current version, refuse every other by name —
// an older one saying what to do with it (remedy), a newer as unsupported.
func refuseVersion(what string, got, want uint16, remedy string) error {
	if got < want {
		return fmt.Errorf("store: %s version %d refused, this build reads version %d: %s", what, got, want, remedy)
	}
	return fmt.Errorf("store: %s version %d unsupported, this build reads version %d", what, got, want)
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
		s.rebuildCounts()
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
	s.rebuildCounts()
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

// rebuildCounts reconstructs the counters a store file does not carry.
// The naive (one-record-per-sweep) count comes from the sweep schedule:
// each epoch spans the sweeps in [from, lastSeen]. The generation follows
// from it — one mutation per sweep day, missing day and measurement, as
// building the store sweep by sweep counts them — so a loaded store's
// documents carry a collected one's generation whenever a domain was
// measured on every sweep its epochs span, as a zone's domains are.
func (s *Store) rebuildCounts() {
	s.naive = 0
	for d := range s.names {
		o, n := s.off[d], s.cnt[d]
		for j := uint32(0); j < n; j++ {
			s.naive += int64(countSweepsIn(s.sweeps, s.epochFrom[o+j], s.epochLast[o+j]))
		}
	}
	s.gen = uint64(len(s.sweeps)+len(s.missing)) + uint64(s.naive)
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
