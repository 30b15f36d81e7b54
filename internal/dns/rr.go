package dns

import (
	"fmt"
	"net/netip"
)

// RR is a DNS resource record. Name is canonical; Data holds the typed
// RDATA. The Type field must agree with the dynamic type of Data; the
// constructors below guarantee this.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// String renders the record in zone-file presentation format.
func (rr RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s", rr.Name, rr.TTL, rr.Class, rr.Type, rr.Data.String())
}

// RData is the typed payload of a resource record.
type RData interface {
	// String renders the RDATA in presentation format.
	String() string
	// appendWire appends the RDATA in wire format. Name compression is
	// deliberately not applied inside RDATA (RFC 3597 forbids it for new
	// types and it buys little for NS, SOA and MX in small messages).
	appendWire(b []byte) ([]byte, error)
}

// AData is an IPv4 address record payload.
type AData struct{ Addr netip.Addr }

// String implements RData.
func (d AData) String() string { return d.Addr.String() }

func (d AData) appendWire(b []byte) ([]byte, error) {
	if !d.Addr.Is4() {
		return nil, fmt.Errorf("dns: A record with non-IPv4 address %v", d.Addr)
	}
	a4 := d.Addr.As4()
	return append(b, a4[:]...), nil
}

// NSData names an authoritative server for the owner name.
type NSData struct{ Host string }

// String implements RData.
func (d NSData) String() string { return d.Host }

func (d NSData) appendWire(b []byte) ([]byte, error) { return appendName(b, d.Host) }

// SOAData is a start-of-authority payload.
type SOAData struct {
	MName   string // primary name server
	RName   string // responsible mailbox
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32
}

// String implements RData.
func (d SOAData) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d", d.MName, d.RName, d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum)
}

func (d SOAData) appendWire(b []byte) ([]byte, error) {
	b, err := appendName(b, d.MName)
	if err != nil {
		return nil, err
	}
	b, err = appendName(b, d.RName)
	if err != nil {
		return nil, err
	}
	for _, v := range [5]uint32{d.Serial, d.Refresh, d.Retry, d.Expire, d.Minimum} {
		b = append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
	}
	return b, nil
}

// MXData is a mail-exchanger payload.
type MXData struct {
	Preference uint16
	Host       string
}

// String implements RData.
func (d MXData) String() string { return fmt.Sprintf("%d %s", d.Preference, d.Host) }

func (d MXData) appendWire(b []byte) ([]byte, error) {
	b = append(b, byte(d.Preference>>8), byte(d.Preference))
	return appendName(b, d.Host)
}

// RawData carries the RDATA of a record type the codec has no
// structured representation for, verbatim (RFC 3597 opaque handling).
// Encoding reproduces the exact original octets, so decoding unknown
// types is lossless and re-encoding is idempotent.
type RawData struct{ Octets string }

// String implements RData in the RFC 3597 \# presentation format.
func (d RawData) String() string {
	if len(d.Octets) == 0 {
		return `\# 0`
	}
	return fmt.Sprintf(`\# %d %x`, len(d.Octets), d.Octets)
}

func (d RawData) appendWire(b []byte) ([]byte, error) { return append(b, d.Octets...), nil }

// NewA builds an A record.
func NewA(name string, ttl uint32, addr netip.Addr) RR {
	return RR{Name: Canonical(name), Type: TypeA, Class: ClassIN, TTL: ttl, Data: AData{addr}}
}

// NewNS builds an NS record.
func NewNS(name string, ttl uint32, host string) RR {
	return RR{Name: Canonical(name), Type: TypeNS, Class: ClassIN, TTL: ttl, Data: NSData{Canonical(host)}}
}

// NewSOA builds an SOA record with conventional timer values.
func NewSOA(name, mname, rname string, serial uint32) RR {
	return RR{Name: Canonical(name), Type: TypeSOA, Class: ClassIN, TTL: 3600, Data: SOAData{
		MName: Canonical(mname), RName: Canonical(rname), Serial: serial,
		Refresh: 7200, Retry: 900, Expire: 1209600, Minimum: 3600,
	}}
}

// NewMX builds an MX record.
func NewMX(name string, ttl uint32, pref uint16, host string) RR {
	return RR{Name: Canonical(name), Type: TypeMX, Class: ClassIN, TTL: ttl, Data: MXData{pref, Canonical(host)}}
}
