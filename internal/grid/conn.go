package grid

import (
	"errors"
	"net"
	"sync"

	"whereru/internal/frame"
)

// framedConn is one grid connection carrying whole frames in both
// directions, on the worker's side and the coordinator's alike.
type framedConn struct {
	nc net.Conn
	mu sync.Mutex // serializes frame writes (results and heartbeats come from different goroutines)
}

// send builds m's frame in place and writes it with one Write. A message
// too large for a frame fails here with the error the receiver would
// have given.
func (f *framedConn) send(m message) error {
	var w frame.Writer
	w.Begin()
	m.encode(&w)
	b, err := w.Finish(frame.MaxPayload)
	if err != nil {
		return wire(err)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	_, err = f.nc.Write(b)
	return err
}

// recv reads one frame and returns its message type with a reader over
// the fields behind it. A frame that arrived whole and is bad — oversize
// or failing its checksum — is a *wireError; a frame the transport cut
// short is the transport's error (io.EOF when the peer closed between
// frames), reachable through errors.Is.
func (f *framedConn) recv() (uint8, *frame.Reader, error) {
	payload, _, err := frame.Read(f.nc, frame.MaxPayload)
	if err != nil {
		var fe *frame.Error
		if errors.As(err, &fe) && fe.Verdict != frame.Torn {
			err = wire(fe)
		}
		return 0, nil, err
	}
	r := frame.NewReader(payload)
	return r.U8("", "message type"), &r, nil
}
