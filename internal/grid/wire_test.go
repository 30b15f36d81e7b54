package grid

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"whereru/internal/frame"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
	"whereru/internal/store"
)

func payloadOf(m message) []byte {
	var w frame.Writer
	m.encode(&w)
	return w.Bytes()
}

func goldenHistogram() openintel.LatencyHistogram {
	var hist openintel.LatencyHistogram
	hist.Observe(150 * time.Millisecond)
	hist.Observe(40 * time.Microsecond)
	hist.Observe(40 * time.Microsecond)
	return hist
}

// pipeConn gives framedConn a net.Conn whose reads come from r and whose
// writes land in w.
type pipeConn struct {
	net.Conn
	r io.Reader
	w bytes.Buffer
}

func (p *pipeConn) Read(b []byte) (int, error)  { return p.r.Read(b) }
func (p *pipeConn) Write(b []byte) (int, error) { return p.w.Write(b) }

// TestGoldenFrames pins the wire bytes of all seven messages against
// frames written by the commit before internal/frame existed (0e856d7,
// its writeFrame over its encode()); result carries the store's golden
// batch, so when that fixture moved to the set-table layout (the commit
// after 4a0c376) the new batch was spliced into result.frame — its
// length, frame length and checksum patched, every other byte 0e856d7's.
// A diff here is a wire format change: never regenerate these from the
// current code.
func TestGoldenFrames(t *testing.T) {
	batch, err := os.ReadFile(filepath.Join("..", "store", "testdata", "golden", "batch.bin"))
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2022, 2, 24)
	cases := []struct {
		name   string
		msg    message
		decode func(r *frame.Reader) (any, error)
	}{
		{"hello", helloMsg{Name: "worker-7", Fingerprint: 0x0123456789abcdef},
			func(r *frame.Reader) (any, error) { return decodeHello(r) }},
		{"welcome", welcomeMsg{Fingerprint: 0x0123456789abcdef},
			func(r *frame.Reader) (any, error) { return decodeWelcome(r) }},
		{"reject", rejectMsg{Reason: "config fingerprint mismatch: worker 0000000000000001, coordinator 0123456789abcdef"},
			func(r *frame.Reader) (any, error) { return decodeReject(r) }},
		{"assign", assignMsg{Unit: 5, Seq: 12, Day: day, Start: 640, End: 704},
			func(r *frame.Reader) (any, error) { return decodeAssign(r) }},
		{"result", resultMsg{Unit: 5, Seq: 12, Day: day, Failed: 1, NXDomain: 2, Unreachable: 3, Retries: 70000, Recovered: 4,
			CacheHits: 1 << 33, CacheMisses: 17, CacheCoalesced: 9, Latency: goldenHistogram(), Batch: batch},
			func(r *frame.Reader) (any, error) { return decodeResult(r) }},
		{"heartbeat", bareMsg(msgHeartbeat), func(r *frame.Reader) (any, error) { return bareMsg(msgHeartbeat), r.Done("heartbeat", "message") }},
		{"done", bareMsg(msgDone), func(r *frame.Reader) (any, error) { return bareMsg(msgDone), r.Done("done", "message") }},
	}
	for i, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.name+".frame"))
		if err != nil {
			t.Fatal(err)
		}
		out := &pipeConn{}
		if err := (&framedConn{nc: out}).send(tc.msg); err != nil {
			t.Fatalf("%s: send: %v", tc.name, err)
		}
		if !bytes.Equal(out.w.Bytes(), want) {
			t.Errorf("%s: wire bytes changed:\n got % x\nwant % x", tc.name, out.w.Bytes(), want)
		}
		typ, r, err := (&framedConn{nc: &pipeConn{r: bytes.NewReader(want)}}).recv()
		if err != nil || int(typ) != i+1 {
			t.Fatalf("%s: recv: type %d, err %v", tc.name, typ, err)
		}
		if got, err := tc.decode(r); err != nil || !reflect.DeepEqual(got, tc.msg) {
			t.Errorf("%s: fixture decoded to %+v (err %v), want %+v", tc.name, got, err, tc.msg)
		}
	}
}

// The four tests below keep the names they had when grid owned its
// framing. The frame itself is tested (and fuzzed) in internal/frame;
// these pin what a grid connection makes of each verdict: a frame that
// arrived whole and is bad is a *wireError, a frame the transport cut
// short is the transport's error, and a peer that closed between frames
// is io.EOF.

func recvFrom(in []byte) (uint8, *frame.Reader, error) {
	return (&framedConn{nc: &pipeConn{r: bytes.NewReader(in)}}).recv()
}

func isWireError(err error) bool { _, ok := err.(*wireError); return ok }

func TestFrameRoundTrip(t *testing.T) {
	for _, reason := range []string{"", "x", strings.Repeat("r", 4096)} {
		conn := &pipeConn{}
		if err := (&framedConn{nc: conn}).send(rejectMsg{Reason: reason}); err != nil {
			t.Fatalf("send(%d-byte reason): %v", len(reason), err)
		}
		typ, r, err := recvFrom(conn.w.Bytes())
		if err != nil || typ != msgReject {
			t.Fatalf("recv(%d-byte reason): type %d, err %v", len(reason), typ, err)
		}
		if got, err := decodeReject(r); err != nil || got.Reason != reason {
			t.Errorf("round trip lost a %d-byte reason (err %v)", len(reason), err)
		}
	}
	// An empty payload has no type byte: type 0, which no caller accepts.
	empty, _ := frame.Append(nil, nil, frame.MaxPayload)
	if typ, r, err := recvFrom(empty); err != nil || typ != 0 || r.Err() == nil {
		t.Errorf("empty payload: type %d, err %v", typ, err)
	}
}

// TestFrameDetectsEveryBitFlip: any single-bit corruption of a frame on
// the wire must surface as an error from recv, never as a silently
// different message: a lossy transport can only kill a connection, not
// corrupt what it carries.
func TestFrameDetectsEveryBitFlip(t *testing.T) {
	good, err := frame.Append(nil, payloadOf(welcomeMsg{Fingerprint: 0xfeedface}), frame.MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(good); i++ {
		for bit := 0; bit < 8; bit++ {
			bad := append([]byte{}, good...)
			bad[i] ^= 1 << bit
			_, _, err := recvFrom(bad)
			if err == nil {
				t.Fatalf("flip of byte %d bit %d went undetected", i, bit)
			}
			// Behind the length prefix the frame still arrives whole, so
			// the flip is a checksum failure: a protocol error.
			if i >= 4 && !isWireError(err) {
				t.Fatalf("flip of byte %d bit %d: %v is not a *wireError", i, bit, err)
			}
		}
	}
}

func TestFrameTruncation(t *testing.T) {
	good, err := frame.Append(nil, payloadOf(welcomeMsg{Fingerprint: 1}), frame.MaxPayload)
	if err != nil {
		t.Fatal(err)
	}
	for n := 1; n < len(good); n++ {
		if _, _, err := recvFrom(good[:n]); err == nil || isWireError(err) || !errors.Is(err, io.ErrUnexpectedEOF) {
			t.Fatalf("%d-byte truncation of a %d-byte frame: %v", n, len(good), err)
		}
	}
	if _, _, err := recvFrom(nil); err != io.EOF {
		t.Errorf("closed between frames: %v", err)
	}
}

func TestFrameRejectsAbsurdLength(t *testing.T) {
	if _, _, err := recvFrom(binary.BigEndian.AppendUint32(nil, frame.MaxPayload+1)); !isWireError(err) {
		t.Fatalf("want wireError for oversized announcement, got %v", err)
	}
}

// TestLargestBatchFitsAResultFrame is the boundary between the store's
// batch limit and the frame limit: whatever EncodeMeasurementBatch
// accepts must still fit a frame once the result's tallies and histogram
// are wrapped around it, so an oversize unit is refused when the worker
// encodes it and never after it was sent.
func TestLargestBatchFitsAResultFrame(t *testing.T) {
	envelope := len(payloadOf(resultMsg{}))
	if room := frame.MaxPayload - store.MaxBatchBytes; envelope > room {
		t.Fatalf("result envelope is %d bytes, the batch limit leaves %d", envelope, room)
	}
	// The same arithmetic through the real writer, at a limit small enough
	// to allocate: a batch that leaves exactly the envelope fits, one byte
	// more does not.
	const limit = 1 << 12
	for _, tc := range []struct {
		batch int
		ok    bool
	}{{limit - envelope, true}, {limit - envelope + 1, false}} {
		var w frame.Writer
		w.Begin()
		resultMsg{Batch: make([]byte, tc.batch)}.encode(&w)
		if _, err := w.Finish(limit); (err == nil) != tc.ok {
			t.Errorf("batch of %d bytes under a %d-byte frame limit: err %v", tc.batch, limit, err)
		}
	}
}

// TestMessageRoundTrips drives every message codec through encode →
// decode and checks structural equality, then feeds the decoder every
// truncation of each payload: all must error, none may panic.
func TestMessageRoundTrips(t *testing.T) {
	var hist openintel.LatencyHistogram
	hist.Observe(150 * time.Millisecond)
	hist.Observe(40 * time.Microsecond)
	res := resultMsg{
		Unit: 3, Seq: 19, Day: simtime.Date(2022, 2, 24),
		Failed: 2, NXDomain: 1, Unreachable: 4, Retries: 7, Recovered: 6,
		Latency: hist,
		Batch:   []byte{0xde, 0xad, 0xbe, 0xef},
	}
	cases := []struct {
		name   string
		msg    message
		typ    uint8
		decode func(r *frame.Reader) (any, error)
	}{
		{"hello", helloMsg{Name: "w-1", Fingerprint: 0xfeedface}, msgHello,
			func(r *frame.Reader) (any, error) { return decodeHello(r) }},
		{"welcome", welcomeMsg{Fingerprint: 0xfeedface}, msgWelcome,
			func(r *frame.Reader) (any, error) { return decodeWelcome(r) }},
		{"reject", rejectMsg{Reason: "fingerprint mismatch"}, msgReject,
			func(r *frame.Reader) (any, error) { return decodeReject(r) }},
		{"assign", assignMsg{Unit: 5, Seq: 12, Day: simtime.Date(2022, 3, 1), Start: 640, End: 704}, msgAssign,
			func(r *frame.Reader) (any, error) { return decodeAssign(r) }},
		{"result", res, msgResult,
			func(r *frame.Reader) (any, error) { return decodeResult(r) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			enc := payloadOf(tc.msg)
			r := frame.NewReader(enc)
			if typ := r.U8("", "message type"); typ != tc.typ {
				t.Fatalf("message type = %d, want %d", typ, tc.typ)
			}
			got, err := tc.decode(&r)
			if err != nil {
				t.Fatalf("decode: %v", err)
			}
			if !reflect.DeepEqual(got, tc.msg) {
				t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, tc.msg)
			}
			for n := 1; n < len(enc); n++ {
				r := frame.NewReader(enc[:n])
				r.U8("", "message type")
				if _, err := tc.decode(&r); err == nil {
					t.Fatalf("decode accepted a %d-byte truncation of %d bytes", n, len(enc))
				} else if _, ok := err.(*wireError); !ok {
					t.Fatalf("%d-byte truncation: %T is not a *wireError", n, err)
				}
			}
			// Trailing garbage is rejected (the Done check).
			r = frame.NewReader(append(append([]byte{}, enc...), 0x00))
			r.U8("", "message type")
			if _, err := tc.decode(&r); err == nil {
				t.Error("decode accepted trailing garbage")
			}
		})
	}
}

func TestAssignRejectsInvertedRange(t *testing.T) {
	r := frame.NewReader(payloadOf(assignMsg{Unit: 1, Seq: 2, Day: 100, Start: 50, End: 10}))
	r.U8("", "message type")
	if _, err := decodeAssign(&r); err == nil {
		t.Fatal("decodeAssign accepted an inverted range")
	}
}

func TestHeartbeatRoundTrip(t *testing.T) {
	r := frame.NewReader(payloadOf(bareMsg(msgHeartbeat)))
	if typ := r.U8("", "message type"); typ != msgHeartbeat {
		t.Fatalf("message type = %d, want %d", typ, msgHeartbeat)
	}
	if err := r.Done("heartbeat", "message"); err != nil {
		t.Fatalf("heartbeat carries unexpected fields: %v", err)
	}
}
