// Package dns implements the subset of the DNS protocol the reproduction
// needs to behave like a real active-measurement platform: the RFC 1035
// wire format (with name compression), typed RDATA for the records the
// study measures and the world serves (A, NS, SOA and MX; every other
// type is carried as opaque RawData, RFC 3597), a query client with
// retransmission, an authoritative handler framework over an in-memory
// network whose every exchange crosses the codec (MemNet, for large
// sweeps), and an iterative resolver that walks delegations from the root
// exactly the way OpenINTEL's measurement pipeline does.
package dns

import "fmt"

// Type is a DNS resource record type code (RFC 1035 §3.2.2).
type Type uint16

// Record types used by the measurement pipeline.
const (
	TypeA   Type = 1
	TypeNS  Type = 2
	TypeSOA Type = 6
	TypeMX  Type = 15
	// TypeANY is the QTYPE "*" (RFC 1035 §3.2.3); query-only.
	TypeANY Type = 255
)

var typeNames = map[Type]string{
	TypeA:   "A",
	TypeNS:  "NS",
	TypeSOA: "SOA",
	TypeMX:  "MX",
	TypeANY: "ANY",
}

// String returns the mnemonic for t, or "TYPEn" for unknown codes
// (RFC 3597 notation).
func (t Type) String() string {
	if s, ok := typeNames[t]; ok {
		return s
	}
	return fmt.Sprintf("TYPE%d", uint16(t))
}

// Class is a DNS class code. Only IN is used in practice.
type Class uint16

// ClassIN is the Internet class.
const ClassIN Class = 1

// String returns the mnemonic for c.
func (c Class) String() string {
	if c == ClassIN {
		return "IN"
	}
	return fmt.Sprintf("CLASS%d", uint16(c))
}

// RCode is a DNS response code (RFC 1035 §4.1.1).
type RCode uint8

// Response codes.
const (
	RCodeNoError  RCode = 0
	RCodeFormErr  RCode = 1
	RCodeServFail RCode = 2
	RCodeNXDomain RCode = 3
	RCodeNotImp   RCode = 4
	RCodeRefused  RCode = 5
)

var rcodeNames = map[RCode]string{
	RCodeNoError:  "NOERROR",
	RCodeFormErr:  "FORMERR",
	RCodeServFail: "SERVFAIL",
	RCodeNXDomain: "NXDOMAIN",
	RCodeNotImp:   "NOTIMP",
	RCodeRefused:  "REFUSED",
}

// String returns the mnemonic for rc.
func (rc RCode) String() string {
	if s, ok := rcodeNames[rc]; ok {
		return s
	}
	return fmt.Sprintf("RCODE%d", uint8(rc))
}

// Opcode is a DNS operation code. Only QUERY (0) is implemented.
type Opcode uint8
