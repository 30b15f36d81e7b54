package dns

import (
	"errors"
	"net"
	"net/netip"
	"sync"
)

// Server is a UDP DNS server dispatching to a Handler — the real-socket
// counterpart of binding the handler into a MemNet. It exists so the same
// authoritative logic that powers in-memory sweeps can be driven by any
// standard DNS client (see cmd/dnsdig).
type Server struct {
	Handler Handler

	mu     sync.Mutex
	conn   *net.UDPConn
	closed bool
	wg     sync.WaitGroup
}

// Listen binds a UDP socket on the given address ("127.0.0.1:0" for an
// ephemeral port) and starts serving until Close. A server listens once:
// Listen on a listening or closed server is refused.
func (s *Server) Listen(addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed || s.conn != nil {
		s.mu.Unlock()
		conn.Close()
		return errors.New("dns: server already listening or closed")
	}
	s.conn = conn
	s.mu.Unlock()
	s.wg.Add(1)
	go s.serveLoop(conn)
	return nil
}

// Addr returns the bound address, valid after Listen.
func (s *Server) Addr() netip.AddrPort {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return netip.AddrPort{}
	}
	return s.conn.LocalAddr().(*net.UDPAddr).AddrPort()
}

func (s *Server) serveLoop(conn *net.UDPConn) {
	defer s.wg.Done()
	buf := make([]byte, maxMsgSize)
	var out []byte // response encode buffer, reused across datagrams
	for {
		n, raddr, err := conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			return // closed
		}
		query, err := Decode(buf[:n])
		if err != nil || query.Response {
			continue // not a well-formed query; drop silently like BIND
		}
		resp := s.Handler.ServeDNS(query, raddr.Addr())
		if resp == nil {
			continue
		}
		wire, err := resp.AppendEncode(out[:0])
		if err != nil {
			continue
		}
		out = wire
		if len(wire) > maxUDPResponse(query) {
			// Truncate to header+question and set TC, per RFC 1035 §4.2.1.
			// EDNS0 queries raise the budget to their advertised size.
			tc := resp.Reply()
			tc.Authoritative = resp.Authoritative
			tc.RCode = resp.RCode
			tc.Truncated = true
			if wire, err = tc.AppendEncode(out[:0]); err != nil {
				continue
			}
			out = wire
		}
		// A failed send loses that reply only; the loop ends when Close
		// closes the socket.
		if _, err := conn.WriteToUDPAddrPort(wire, raddr); errors.Is(err, net.ErrClosed) {
			return
		}
	}
}

// Close stops the UDP server and waits for its serve loop to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	conn := s.conn
	s.mu.Unlock()
	var err error
	if conn != nil {
		err = conn.Close()
	}
	s.wg.Wait()
	return err
}
