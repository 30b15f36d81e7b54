package dns

import (
	"errors"
	"fmt"
	"net/netip"
	"strings"
	"sync"
)

// Header is the fixed 12-octet DNS message header (RFC 1035 §4.1.1),
// unpacked into named fields.
type Header struct {
	ID                 uint16
	Response           bool // QR
	Opcode             Opcode
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	RCode              RCode
}

// Question is a single query (RFC 1035 §4.1.2).
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", q.Name, q.Class, q.Type)
}

// Message is a complete DNS message.
type Message struct {
	Header
	Questions  []Question
	Answers    []RR
	Authority  []RR
	Additional []RR

	// arena is the pooled storage backing a message MemNet decoded, or
	// the Reply built in it (nil for messages built or decoded any other
	// way); see msgArena.
	arena *msgArena
}

// NewQuery builds a standard query message for one question.
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: false},
		Questions: []Question{{Name: Canonical(name), Type: qtype, Class: ClassIN}},
	}
}

// Reply builds a response skeleton for a request: same ID and question,
// QR set, RD echoed. The reply to a request MemNet is serving is built in
// the request's arena and shares its lifetime (see Handler); any other
// reply is one allocation of its own.
func (m *Message) Reply() *Message {
	var r *Message
	var q *[1]Question
	var arena *msgArena
	if a := m.arena; a != nil && a.serving && !a.replied {
		a.replied = true
		r, q, arena = &a.reply, &a.replyQ, a
	} else {
		own := new(ownedMessage)
		r, q = &own.m, &own.q
	}
	*r = Message{
		Header: Header{
			ID:               m.ID,
			Response:         true,
			Opcode:           m.Opcode,
			RecursionDesired: m.RecursionDesired,
		},
		arena: arena,
	}
	if len(m.Questions) == 1 {
		q[0] = m.Questions[0]
		r.Questions = q[:]
	} else {
		r.Questions = append(r.Questions, m.Questions...)
	}
	return r
}

// Records returns an empty slice with room for n records, to build m's
// sections in. On the Reply to a request MemNet is serving that room is
// the request arena's record storage past the request's own records: it
// costs no allocation and lives exactly as long as the reply does (see
// Handler). Any other message gets a slice of its own.
func (m *Message) Records(n int) []RR {
	a := m.arena
	if a == nil || m != &a.reply {
		return make([]RR, 0, n)
	}
	used := len(a.rrs)
	if cap(a.rrs)-used < n {
		// A new slab; the outgrown one stays with whatever aliases it.
		a.rrs = make([]RR, used, used+n)
	}
	a.rrs = a.rrs[:used+n]
	return a.rrs[used : used : used+n]
}

// String renders the message in a dig-like presentation.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; id=%d %s qr=%t aa=%t tc=%t rd=%t ra=%t\n",
		m.ID, m.RCode, m.Response, m.Authoritative, m.Truncated, m.RecursionDesired, m.RecursionAvailable)
	for _, q := range m.Questions {
		fmt.Fprintf(&b, ";; question: %s\n", q)
	}
	for _, section := range []struct {
		name string
		rrs  []RR
	}{{"answer", m.Answers}, {"authority", m.Authority}, {"additional", m.Additional}} {
		for _, rr := range section.rrs {
			fmt.Fprintf(&b, "%s\t; %s\n", rr, section.name)
		}
	}
	return b.String()
}

// Errors returned by the codec.
var (
	ErrTruncatedMessage = errors.New("dns: message too short")
	ErrBadPointer       = errors.New("dns: bad compression pointer")
	ErrNameTooLong      = errors.New("dns: name exceeds 255 octets")
)

const (
	headerLen = 12
	// maxMsgSize is the hard cap accepted by Encode.
	maxMsgSize = 65535
	// maxCount is the sanity bound on total record counts in a decoded
	// message, against hostile headers.
	maxCount = 1024
)

// flags packs the header flag fields into the wire flags word.
func (m *Message) flags() uint16 {
	var flags uint16
	if m.Response {
		flags |= 1 << 15
	}
	flags |= uint16(m.Opcode&0xF) << 11
	if m.Authoritative {
		flags |= 1 << 10
	}
	if m.Truncated {
		flags |= 1 << 9
	}
	if m.RecursionDesired {
		flags |= 1 << 8
	}
	if m.RecursionAvailable {
		flags |= 1 << 7
	}
	flags |= uint16(m.RCode & 0xF)
	return flags
}

// setFlags unpacks the wire flags word into the header fields.
func (m *Message) setFlags(flags uint16) {
	m.Response = flags&(1<<15) != 0
	m.Opcode = Opcode(flags >> 11 & 0xF)
	m.Authoritative = flags&(1<<10) != 0
	m.Truncated = flags&(1<<9) != 0
	m.RecursionDesired = flags&(1<<8) != 0
	m.RecursionAvailable = flags&(1<<7) != 0
	m.RCode = RCode(flags & 0xF)
}

// nameOffset records that the name suffix was written literally at off
// (message-relative). Suffixes of a canonical name are substrings of it,
// so the compression table holds no allocated keys.
type nameOffset struct {
	suffix string
	off    int
}

// encoder is the reusable state of one message encode: the compression
// table. Pooled so steady-state encoding allocates nothing.
type encoder struct {
	names []nameOffset
}

var encoderPool = sync.Pool{New: func() any { return new(encoder) }}

// appendCompressedName writes name using RFC 1035 compression pointers,
// byte-identically to the reference builder: the longest suffix already
// written (scanning the table in insertion order, so first-write-wins
// exactly like the reference map) is referenced with a 2-octet pointer,
// and only the new leading labels are written literally. base is the
// message's start offset within b. The name is validated as it is
// written: a suffix found in the table was checked when it was written,
// and each new label is checked as it is copied.
func (e *encoder) appendCompressedName(b []byte, base int, name string) ([]byte, error) {
	if name == "." {
		return append(b, 0), nil
	}
	if !fqdnShape(name) {
		return nil, fmt.Errorf("dns: invalid name %q", name)
	}
	for pos := 0; pos < len(name); {
		suffix := name[pos:]
		off := -1
		for i := range e.names {
			if e.names[i].suffix == suffix {
				off = e.names[i].off
				break
			}
		}
		if off >= 0 { // recorded offsets are always < 0x3FFF
			return append(b, 0xC0|byte(off>>8), byte(off)), nil
		}
		dot := labelEnd(name, pos)
		if dot < 0 {
			return nil, fmt.Errorf("dns: invalid name %q", name)
		}
		if len(b)-base < 0x3FFF {
			e.names = append(e.names, nameOffset{suffix, len(b) - base})
		}
		b = append(b, byte(dot-pos))
		b = append(b, name[pos:dot]...)
		pos = dot + 1
	}
	return append(b, 0), nil
}

func appendUint16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func appendUint32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (e *encoder) appendRR(b []byte, base int, rr RR) ([]byte, error) {
	b, err := e.appendCompressedName(b, base, rr.Name)
	if err != nil {
		return nil, err
	}
	b = appendUint16(b, uint16(rr.Type))
	b = appendUint16(b, uint16(rr.Class))
	b = appendUint32(b, rr.TTL)
	lenOff := len(b)
	b = appendUint16(b, 0) // placeholder RDLENGTH
	b, err = rr.Data.appendWire(b)
	if err != nil {
		return nil, err
	}
	rdlen := len(b) - lenOff - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dns: RDATA too long (%d octets)", rdlen)
	}
	b[lenOff] = byte(rdlen >> 8)
	b[lenOff+1] = byte(rdlen)
	return b, nil
}

// AppendEncode appends the wire encoding of m to buf and returns the
// extended slice. Compression offsets are relative to len(buf), so a
// message can be appended after framing bytes. This is the allocation-free
// fast path: with a buffer of sufficient capacity it does not allocate.
func (m *Message) AppendEncode(buf []byte) ([]byte, error) {
	e := encoderPool.Get().(*encoder)
	e.names = e.names[:0]
	b, err := m.appendEncode(buf, e)
	encoderPool.Put(e)
	return b, err
}

func (m *Message) appendEncode(buf []byte, e *encoder) ([]byte, error) {
	base := len(buf)
	b := appendUint16(buf, m.ID)
	b = appendUint16(b, m.flags())
	b = appendUint16(b, uint16(len(m.Questions)))
	b = appendUint16(b, uint16(len(m.Answers)))
	b = appendUint16(b, uint16(len(m.Authority)))
	b = appendUint16(b, uint16(len(m.Additional)))
	var err error
	for _, q := range m.Questions {
		if b, err = e.appendCompressedName(b, base, q.Name); err != nil {
			return nil, err
		}
		b = appendUint16(b, uint16(q.Type))
		b = appendUint16(b, uint16(q.Class))
	}
	for _, section := range [3][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if b, err = e.appendRR(b, base, rr); err != nil {
				return nil, err
			}
		}
	}
	if len(b)-base > maxMsgSize {
		return nil, fmt.Errorf("dns: message exceeds %d octets", maxMsgSize)
	}
	return b, nil
}

// Encode serializes the message to wire format in a fresh buffer.
func (m *Message) Encode() ([]byte, error) {
	return m.AppendEncode(make([]byte, 0, 512))
}

// parser decodes one message. Names are parsed by offset directly into
// the packet: labels are copied into the scratch buffer (no intermediate
// label slices or builders) and materialized as a string once — or not at
// all when the name is the hint or one the intern table holds. A pooled
// decode's parser, with its name scratch, lives in the msgArena, so the
// decode neither zeroes it on its stack nor allocates it; Decode's lives
// on its stack, and nothing may let p escape.
type parser struct {
	buf    []byte
	pos    int
	intern *wireIntern
	// hint is "" or a name the encoder accepted that the message is
	// expected to repeat (MemNet passes the query's question): a decoded
	// name equal to it is returned as hint.
	hint    string
	scratch [256]byte
	// made holds the first names this message materialized as new
	// strings (nmade of them), so a name it repeats — a referral's NS
	// host as its glue's owner — allocates once, not twice, when the
	// intern table does not hold it.
	made  [8]string
	nmade int
}

func (p *parser) uint16() (uint16, error) {
	if p.pos+2 > len(p.buf) {
		return 0, ErrTruncatedMessage
	}
	v := uint16(p.buf[p.pos])<<8 | uint16(p.buf[p.pos+1])
	p.pos += 2
	return v, nil
}

func (p *parser) uint32() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, ErrTruncatedMessage
	}
	v := uint32(p.buf[p.pos])<<24 | uint32(p.buf[p.pos+1])<<16 | uint32(p.buf[p.pos+2])<<8 | uint32(p.buf[p.pos+3])
	p.pos += 4
	return v, nil
}

// name decodes a possibly-compressed name starting at p.pos, leaving p.pos
// just past the name's encoding at the top level. The checks mirror the
// reference parser exactly (same order, same bounds) so acceptance is
// identical; only the string materialization differs.
func (p *parser) name() (string, error) {
	n := 0 // presentation bytes accumulated in scratch
	pos := p.pos
	jumped := false
	jumps := 0
	for {
		if pos >= len(p.buf) {
			return "", ErrTruncatedMessage
		}
		b := p.buf[pos]
		switch {
		case b == 0:
			if !jumped {
				p.pos = pos + 1
			}
			if n == 0 {
				return ".", nil
			}
			// The materialized string is the hint itself when the bytes
			// spell it, else the intern table's copy, else a new string,
			// added to the table when one is attached. Only that last case
			// validates: the hint was accepted by the encoder and every
			// interned name was validated before it was added, so a name
			// equal to one is valid.
			name := p.scratch[:n]
			if string(name) == p.hint { // comparison does not allocate
				return p.hint, nil
			}
			var h uint64
			if p.intern != nil {
				s, hash, ok := p.intern.lookup(name)
				if ok {
					return s, nil
				}
				h = hash
			}
			for _, s := range p.made[:p.nmade] {
				if s == string(name) {
					return s, nil
				}
			}
			if !validName(name) {
				// string(name): formatting the scratch slice itself would
				// move the whole parser to the heap.
				return "", fmt.Errorf("dns: decoded invalid name %q", string(name))
			}
			var s string
			if p.intern != nil {
				s = p.intern.add(name, h)
			} else {
				s = string(name)
			}
			if p.nmade < len(p.made) {
				p.made[p.nmade] = s
				p.nmade++
			}
			return s, nil
		case b&0xC0 == 0xC0:
			if pos+2 > len(p.buf) {
				return "", ErrTruncatedMessage
			}
			target := int(b&0x3F)<<8 | int(p.buf[pos+1])
			if !jumped {
				p.pos = pos + 2
			}
			// Pointers must go strictly backwards; that plus a jump
			// budget guards against loops in hostile messages.
			if target >= pos {
				return "", ErrBadPointer
			}
			jumps++
			if jumps > 32 {
				return "", ErrBadPointer
			}
			pos = target
			jumped = true
		case b&0xC0 != 0:
			return "", fmt.Errorf("dns: reserved label type 0x%02x", b&0xC0)
		default:
			if pos+1+int(b) > len(p.buf) {
				return "", ErrTruncatedMessage
			}
			if n+int(b)+1 > 255 {
				return "", ErrNameTooLong
			}
			copy(p.scratch[n:], p.buf[pos+1:pos+1+int(b)])
			n += int(b)
			p.scratch[n] = '.'
			n++
			pos += 1 + int(b)
		}
	}
}

func (p *parser) rr() (RR, error) {
	var rr RR
	name, err := p.name()
	if err != nil {
		return rr, err
	}
	t, err := p.uint16()
	if err != nil {
		return rr, err
	}
	c, err := p.uint16()
	if err != nil {
		return rr, err
	}
	ttl, err := p.uint32()
	if err != nil {
		return rr, err
	}
	rdlen, err := p.uint16()
	if err != nil {
		return rr, err
	}
	if p.pos+int(rdlen) > len(p.buf) {
		return rr, ErrTruncatedMessage
	}
	rdEnd := p.pos + int(rdlen)
	rr.Name, rr.Type, rr.Class, rr.TTL = name, Type(t), Class(c), ttl
	switch rr.Type {
	case TypeA:
		if rdlen != 4 {
			return rr, fmt.Errorf("dns: A RDATA length %d", rdlen)
		}
		addr := netip.AddrFrom4([4]byte(p.buf[p.pos:rdEnd]))
		if p.intern != nil {
			rr.Data = p.intern.aData(addr)
		} else {
			rr.Data = AData{addr}
		}
		p.pos = rdEnd
	case TypeNS:
		host, err := p.name()
		if err != nil {
			return rr, err
		}
		if p.intern != nil {
			rr.Data = p.intern.nsData(host)
		} else {
			rr.Data = NSData{host}
		}
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = p.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = p.name(); err != nil {
			return rr, err
		}
		for _, dst := range [5]*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
			if *dst, err = p.uint32(); err != nil {
				return rr, err
			}
		}
		rr.Data = soa
	case TypeMX:
		pref, err := p.uint16()
		if err != nil {
			return rr, err
		}
		host, err := p.name()
		if err != nil {
			return rr, err
		}
		if p.intern != nil {
			rr.Data = p.intern.mxData(MXData{pref, host})
		} else {
			rr.Data = MXData{pref, host}
		}
	default:
		// Unknown types are carried opaquely so decoding is lossless and
		// re-encoding reproduces the original octets (RFC 3597).
		rr.Data = RawData{Octets: string(p.buf[p.pos:rdEnd])}
		p.pos = rdEnd
	}
	if p.pos != rdEnd {
		return rr, fmt.Errorf("dns: RDATA length mismatch for %s %s", rr.Name, rr.Type)
	}
	return rr, nil
}

// ownedMessage is a Message allocated together with room for its one
// question, for messages that live outside the pools. The array sits
// outside the Message itself, so such messages compare equal to
// messages built any other way.
type ownedMessage struct {
	m Message
	q [1]Question
}

// Decode parses a wire-format DNS message into storage of its own.
func Decode(buf []byte) (*Message, error) {
	d := new(ownedMessage)
	var rrs []RR
	p := parser{buf: buf}
	if err := decodeInto(&p, &d.m, &d.q, &rrs); err != nil {
		return nil, err
	}
	return &d.m, nil
}

// msgArena is the pooled storage of one message MemNet decodes: the
// Message, its question and its records, so a steady-state exchange
// allocates none of them. Names and RData values are not arena storage —
// they are interned or freshly allocated, immutable, and safe to copy
// out — so "copying out" of an arena means copying RR values, strings or
// addresses, never cloning what they point to.
//
// An arena has exactly one owner at a time:
//
//   - a decoded response belongs to whoever Exchange returned it to,
//     until that owner calls Release (or forever, if nobody does: the
//     arena is then ordinary garbage);
//   - a decoded request belongs to MemNet.Exchange, which lends it to the
//     handler for the duration of ServeDNS and takes it back — together
//     with the Reply built in it — once the response is encoded.
type msgArena struct {
	m Message
	q [1]Question
	// rrs holds the decoded message's records and, after them, whatever
	// its Reply borrowed through Records; it is grown to the largest use
	// seen, up to maxArenaRRs.
	rrs []RR

	// reply and replyQ hold the Reply to a request being served.
	reply  Message
	replyQ [1]Question
	// p is the decode's parser, with its name scratch.
	p parser
	// serving marks a request arena on loan to a handler: Reply builds in
	// place (once: replied) and Release is not the handler's to call.
	serving, replied bool
}

// maxArenaRRs bounds the record storage a pooled arena keeps; a larger
// message is decoded all the same and its storage dropped on release.
const maxArenaRRs = 64

var arenaPool = sync.Pool{New: func() any { return new(msgArena) }}

// poisonReleased makes every arena return scribble over the storage it
// takes back, so anything still aliasing a released message reads
// garbage instead of plausible stale data. Set only by this package's
// tests (before any exchange runs); never by shipped code.
var poisonReleased bool

// decodeArena parses buf into a pooled arena; hint is "" or a name the
// encoder accepted that the message is expected to repeat.
func decodeArena(buf []byte, intern *wireIntern, hint string) (*msgArena, error) {
	a := arenaPool.Get().(*msgArena)
	if err := a.decode(buf, intern, hint); err != nil {
		a.recycle()
		return nil, err
	}
	return a, nil
}

// decode parses buf into the arena, overwriting whatever it held.
func (a *msgArena) decode(buf []byte, intern *wireIntern, hint string) error {
	a.p.buf, a.p.intern, a.p.hint = buf, intern, hint
	if err := decodeInto(&a.p, &a.m, &a.q, &a.rrs); err != nil {
		return err
	}
	a.m.arena = a
	return nil
}

// recycle returns the arena to the pool. The caller must be its owner
// and must not touch it (or the messages in it) afterwards.
func (a *msgArena) recycle() {
	a.reset()
	arenaPool.Put(a)
}

// reset ends the arena's current use: the messages in it are dead.
func (a *msgArena) reset() {
	a.serving, a.replied = false, false
	a.m.arena, a.reply.arena = nil, nil
	if cap(a.rrs) > maxArenaRRs {
		a.rrs = nil
	}
	if poisonReleased {
		a.poison()
	}
}

// What poison writes: an owner name, type and payload no zone serves.
var (
	poisonRR = RR{Name: "released.invalid.", Type: Type(0xFFFF), Class: Class(0xFFFF), TTL: 0xDEADBEEF, Data: RawData{Octets: "released"}}
	poisonQ  = Question{Name: poisonRR.Name, Type: poisonRR.Type, Class: poisonRR.Class}
)

// poison overwrites everything the arena owns.
func (a *msgArena) poison() {
	rrs := a.rrs[:cap(a.rrs)]
	for i := range rrs {
		rrs[i] = poisonRR
	}
	a.q[0], a.replyQ[0] = poisonQ, poisonQ
	for _, m := range [2]*Message{&a.m, &a.reply} {
		*m = Message{Header: Header{ID: 0xDEAD, RCode: RCode(0xF), Truncated: true}}
	}
}

// Release hands a response MemNet.Exchange returned back to its pool.
// The caller must be the message's only holder and must have copied out
// whatever it keeps (RR values, names and addresses are safe to copy;
// the Message and its section slices are not safe to keep). Release is
// optional — an unreleased message is collected like any other — and a
// no-op on messages that did not come from a pool.
func (m *Message) Release() {
	if a := m.arena; a != nil && !a.serving {
		a.recycle()
	}
}

// decodeInto parses the message p reads into m, sharing strings and
// RData values through p's hint and intern table. The question goes to q
// and the records to *rrs (grown when too small, left holding exactly
// them) in the common one-question shape; more questions get a slice of
// their own. Every field of m is overwritten, so reused storage carries nothing
// over. Decoded messages never alias buf — every name and payload is
// copied out — so callers may recycle the wire buffer immediately.
func decodeInto(p *parser, m *Message, q *[1]Question, rrs *[]RR) error {
	buf := p.buf
	if len(buf) < headerLen {
		return ErrTruncatedMessage
	}
	p.pos, p.nmade = headerLen, 0
	qd := int(buf[4])<<8 | int(buf[5])
	an := int(buf[6])<<8 | int(buf[7])
	ns := int(buf[8])<<8 | int(buf[9])
	ar := int(buf[10])<<8 | int(buf[11])

	total := an + ns + ar
	if qd+total > maxCount {
		return fmt.Errorf("dns: implausible record counts")
	}
	*m = Message{}
	m.ID = uint16(buf[0])<<8 | uint16(buf[1])
	m.setFlags(uint16(buf[2])<<8 | uint16(buf[3]))
	qs := q[:0]
	if qd > 1 {
		qs = make([]Question, 0, qd)
	}
	for i := 0; i < qd; i++ {
		name, err := p.name()
		if err != nil {
			return err
		}
		t, err := p.uint16()
		if err != nil {
			return err
		}
		c, err := p.uint16()
		if err != nil {
			return err
		}
		qs = append(qs, Question{Name: name, Type: Type(t), Class: Class(c)})
	}
	if qd > 0 {
		m.Questions = qs
	}
	// One backing array serves all three sections, carved with
	// full-slice expressions so appends cannot cross sections.
	if cap(*rrs) < total {
		*rrs = make([]RR, 0, total)
	}
	rs := (*rrs)[:0]
	for i := 0; i < total; i++ {
		rr, err := p.rr()
		if err != nil {
			return err
		}
		rs = append(rs, rr)
	}
	*rrs = rs
	if an > 0 {
		m.Answers = rs[:an:an]
	}
	if ns > 0 {
		m.Authority = rs[an : an+ns : an+ns]
	}
	if ar > 0 {
		m.Additional = rs[an+ns : total : total]
	}
	return nil
}
