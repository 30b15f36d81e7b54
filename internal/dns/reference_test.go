package dns

import (
	"fmt"
	"net/netip"
	"strings"
)

// This file preserves the original, allocation-heavy wire codec verbatim
// as an executable specification. The fast codec in message.go must be
// observationally identical: ReferenceEncode produces byte-for-byte the
// same wire as Message.AppendEncode (compression choices included, since
// wire length feeds the server's TC decision), and ReferenceDecode
// accepts exactly the same inputs as Decode and yields deeply equal
// messages. FuzzMessageDecode pins the equivalence on hostile wire, and
// the whole-study tests in ownership_test.go on every message a study
// exchanges (CheckCodecs, export_test.go). It is test code: nothing the
// binary ships can route an exchange through it.

// Labels splits a canonical name into its labels, excluding the root.
// Labels(".") is nil.
func Labels(name string) []string {
	if name == "." || name == "" {
		return nil
	}
	return strings.Split(strings.TrimSuffix(name, "."), ".")
}

// ValidName reports whether name is a well-formed canonical domain name:
// fully qualified, total length ≤ 255 octets in wire form, each label
// 1–63 octets of printable ASCII. The reference codec's whole-name check;
// the fast encoders make it label by label as they write.
func ValidName(name string) bool { return validName(name) }

type refBuilder struct {
	buf      []byte
	nameOffs map[string]int // canonical name -> offset of its first encoding
}

// appendCompressedName writes name using RFC 1035 compression pointers:
// the longest previously-written suffix is referenced with a 2-octet
// pointer, and only the new leading labels are written literally.
func (w *refBuilder) appendCompressedName(name string) error {
	if !ValidName(name) {
		return fmt.Errorf("dns: invalid name %q", name)
	}
	labels := Labels(name)
	for i := range labels {
		suffix := strings.Join(labels[i:], ".") + "."
		if off, ok := w.nameOffs[suffix]; ok && off < 0x3FFF {
			w.buf = append(w.buf, 0xC0|byte(off>>8), byte(off))
			return nil
		}
		if len(w.buf) < 0x3FFF {
			w.nameOffs[suffix] = len(w.buf)
		}
		w.buf = append(w.buf, byte(len(labels[i])))
		w.buf = append(w.buf, labels[i]...)
	}
	w.buf = append(w.buf, 0)
	return nil
}

func (w *refBuilder) appendUint16(v uint16) { w.buf = append(w.buf, byte(v>>8), byte(v)) }
func (w *refBuilder) appendUint32(v uint32) {
	w.buf = append(w.buf, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func (w *refBuilder) appendRR(rr RR) error {
	if err := w.appendCompressedName(rr.Name); err != nil {
		return err
	}
	w.appendUint16(uint16(rr.Type))
	w.appendUint16(uint16(rr.Class))
	w.appendUint32(rr.TTL)
	lenOff := len(w.buf)
	w.appendUint16(0) // placeholder RDLENGTH
	var err error
	w.buf, err = rr.Data.appendWire(w.buf)
	if err != nil {
		return err
	}
	rdlen := len(w.buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return fmt.Errorf("dns: RDATA too long (%d octets)", rdlen)
	}
	w.buf[lenOff] = byte(rdlen >> 8)
	w.buf[lenOff+1] = byte(rdlen)
	return nil
}

// ReferenceEncode serializes the message with the original map-based
// builder. It allocates freely; use Message.AppendEncode on hot paths.
func ReferenceEncode(m *Message) ([]byte, error) {
	w := &refBuilder{buf: make([]byte, 0, 512), nameOffs: make(map[string]int)}
	w.appendUint16(m.ID)
	w.appendUint16(m.flags())
	w.appendUint16(uint16(len(m.Questions)))
	w.appendUint16(uint16(len(m.Answers)))
	w.appendUint16(uint16(len(m.Authority)))
	w.appendUint16(uint16(len(m.Additional)))
	for _, q := range m.Questions {
		if err := w.appendCompressedName(q.Name); err != nil {
			return nil, err
		}
		w.appendUint16(uint16(q.Type))
		w.appendUint16(uint16(q.Class))
	}
	for _, section := range [][]RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range section {
			if err := w.appendRR(rr); err != nil {
				return nil, err
			}
		}
	}
	if len(w.buf) > maxMsgSize {
		return nil, fmt.Errorf("dns: message exceeds %d octets", maxMsgSize)
	}
	return w.buf, nil
}

type refParser struct {
	buf []byte
	pos int
}

func (p *refParser) uint16() (uint16, error) {
	if p.pos+2 > len(p.buf) {
		return 0, ErrTruncatedMessage
	}
	v := uint16(p.buf[p.pos])<<8 | uint16(p.buf[p.pos+1])
	p.pos += 2
	return v, nil
}

func (p *refParser) uint32() (uint32, error) {
	if p.pos+4 > len(p.buf) {
		return 0, ErrTruncatedMessage
	}
	v := uint32(p.buf[p.pos])<<24 | uint32(p.buf[p.pos+1])<<16 | uint32(p.buf[p.pos+2])<<8 | uint32(p.buf[p.pos+3])
	p.pos += 4
	return v, nil
}

// name decodes a possibly-compressed name starting at p.pos, leaving p.pos
// just past the name's encoding at the top level.
func (p *refParser) name() (string, error) {
	var sb strings.Builder
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
			if sb.Len() == 0 {
				return ".", nil
			}
			name := sb.String()
			if !ValidName(name) {
				return "", fmt.Errorf("dns: decoded invalid name %q", name)
			}
			return name, nil
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
			sb.Write(p.buf[pos+1 : pos+1+int(b)])
			sb.WriteByte('.')
			if sb.Len() > 255 {
				return "", ErrNameTooLong
			}
			pos += 1 + int(b)
		}
	}
}

func (p *refParser) rr() (RR, error) {
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
		rr.Data = AData{netip.AddrFrom4([4]byte(p.buf[p.pos:rdEnd]))}
		p.pos = rdEnd
	case TypeNS:
		host, err := p.name()
		if err != nil {
			return rr, err
		}
		rr.Data = NSData{host}
	case TypeSOA:
		var soa SOAData
		if soa.MName, err = p.name(); err != nil {
			return rr, err
		}
		if soa.RName, err = p.name(); err != nil {
			return rr, err
		}
		for _, dst := range []*uint32{&soa.Serial, &soa.Refresh, &soa.Retry, &soa.Expire, &soa.Minimum} {
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
		rr.Data = MXData{pref, host}
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

// ReferenceDecode parses a wire-format DNS message with the original
// builder-per-name parser.
func ReferenceDecode(buf []byte) (*Message, error) {
	if len(buf) < headerLen {
		return nil, ErrTruncatedMessage
	}
	p := &refParser{buf: buf}
	m := &Message{}
	id, _ := p.uint16()
	flags, _ := p.uint16()
	qd, _ := p.uint16()
	an, _ := p.uint16()
	ns, _ := p.uint16()
	ar, _ := p.uint16()

	m.ID = id
	m.setFlags(flags)

	if int(qd)+int(an)+int(ns)+int(ar) > maxCount {
		return nil, fmt.Errorf("dns: implausible record counts")
	}
	for i := 0; i < int(qd); i++ {
		name, err := p.name()
		if err != nil {
			return nil, err
		}
		t, err := p.uint16()
		if err != nil {
			return nil, err
		}
		c, err := p.uint16()
		if err != nil {
			return nil, err
		}
		m.Questions = append(m.Questions, Question{Name: name, Type: Type(t), Class: Class(c)})
	}
	for _, section := range []struct {
		count int
		dst   *[]RR
	}{{int(an), &m.Answers}, {int(ns), &m.Authority}, {int(ar), &m.Additional}} {
		for i := 0; i < section.count; i++ {
			rr, err := p.rr()
			if err != nil {
				return nil, err
			}
			*section.dst = append(*section.dst, rr)
		}
	}
	return m, nil
}
