package dns

// EDNS(0) (RFC 6891): an OPT pseudo-record in a query's additional
// section advertises the requester's UDP payload capacity, letting the
// server send a response beyond the classic 512-octet limit. The server
// honours the size of an OPT that arrives — no options, no extended
// RCODEs; nothing here sends one.

// TypeOPT is the OPT pseudo-RR type code.
const TypeOPT Type = 41

// minEDNSSize is the smallest payload size an OPT record can advertise:
// a smaller one counts as 512 (RFC 6891 §6.2.5).
const minEDNSSize = 512

// OPTData is the OPT pseudo-record payload. The UDP size rides in the
// record's Class field on the wire; Data is empty (no options).
type OPTData struct{}

// String implements RData.
func (OPTData) String() string { return "" }

func (OPTData) appendWire(b []byte) ([]byte, error) { return b, nil }

// EDNSSize returns the advertised UDP payload size, or 0 when the message
// carries no OPT record.
func (m *Message) EDNSSize() uint16 {
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			size := uint16(rr.Class)
			if size < minEDNSSize {
				size = minEDNSSize
			}
			return size
		}
	}
	return 0
}

// maxUDPDatagram is the largest UDP payload one IPv4 datagram carries
// (65,535 − 20 − 8 octets); a socket refuses to send more.
const maxUDPDatagram = 65507

// maxUDPResponse returns the size budget for a UDP response to the query:
// the size its OPT advertises, up to one datagram.
func maxUDPResponse(query *Message) int {
	if size := query.EDNSSize(); size > 0 {
		return min(int(size), maxUDPDatagram)
	}
	return MaxUDPPayload
}
