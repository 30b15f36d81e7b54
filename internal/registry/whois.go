package registry

import (
	"bufio"
	"fmt"
	"net"
	"strings"
	"sync"

	"whereru/internal/dns"
)

// WhoisServer serves registration records over the RFC 3912 WHOIS
// protocol (TCP port 43 in the wild; an ephemeral port here): the client
// sends one query line, the server answers with key-value text and closes
// the connection. The paper confirms newly registered domains with
// Cisco's Whois Domain API; this is the equivalent service for the
// simulated registries.
type WhoisServer struct {
	// Source answers lookups.
	Source *Group

	mu     sync.Mutex
	ln     net.Listener
	closed bool
	wg     sync.WaitGroup
}

// Listen starts serving on addr ("127.0.0.1:0" for an ephemeral port).
func (s *WhoisServer) Listen(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return fmt.Errorf("registry: whois server already closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the listen address, valid after Listen.
func (s *WhoisServer) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the server.
func (s *WhoisServer) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	s.mu.Unlock()
	var err error
	if ln != nil {
		err = ln.Close()
	}
	s.wg.Wait()
	return err
}

func (s *WhoisServer) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	var connWG sync.WaitGroup
	defer connWG.Wait()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		connWG.Add(1)
		go func() {
			defer connWG.Done()
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *WhoisServer) serveConn(conn net.Conn) {
	line, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil && line == "" {
		return
	}
	query := dns.Canonical(strings.TrimSpace(line))
	rec, ok := s.Source.Whois(query)
	w := bufio.NewWriter(conn)
	defer w.Flush()
	if !ok {
		fmt.Fprintf(w, "%% No match for %s\r\n", query)
		return
	}
	fmt.Fprintf(w, "domain:     %s\r\n", strings.TrimSuffix(rec.Name, "."))
	fmt.Fprintf(w, "registrant: %s\r\n", rec.Registrant)
	fmt.Fprintf(w, "registrar:  %s\r\n", rec.Registrar)
	fmt.Fprintf(w, "created:    %s\r\n", rec.Created)
	if rec.Removed != 0 {
		fmt.Fprintf(w, "removed:    %s\r\n", rec.Removed)
		fmt.Fprintf(w, "state:      DELETED\r\n")
	} else {
		fmt.Fprintf(w, "state:      REGISTERED\r\n")
	}
}

// WhoisQuery performs a client-side RFC 3912 lookup against addr and
// returns the raw response text.
func WhoisQuery(addr, name string) (string, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return "", err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "%s\r\n", name); err != nil {
		return "", err
	}
	var sb strings.Builder
	sc := bufio.NewScanner(conn)
	for sc.Scan() {
		sb.WriteString(sc.Text())
		sb.WriteByte('\n')
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return sb.String(), nil
}
