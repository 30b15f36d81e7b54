// Package grid is the retired grid's wire codec, kept for its golden
// tests: the seven messages a coordinator and its workers once exchanged
// to spread a sweep's work units over processes, and the framed
// connection that carried them. The coordinator and worker runtime is
// gone (DESIGN § Grid); no program links this package, and it goes with
// wire_test.go and testdata/golden, the next rung of ROADMAP item 7.
package grid

import (
	"whereru/internal/frame"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
)

// Every message travels as one internal/frame frame (everything
// big-endian, like the store codec):
//
//	u32 payloadLen | payload | u32 crc32c(payload)
//
// payload:
//
//	u8 msgType | type-specific fields
//
// The checksum is over the payload only; a torn or bit-flipped frame is
// detected at the receiver and the connection dropped. There is no
// resynchronization: a framing error is a connection error. This file
// holds the messages and their payload layouts; conn.go sends and
// receives them.

// Message types.
const (
	msgHello     = 1 // worker → coordinator: name, config fingerprint
	msgWelcome   = 2 // coordinator → worker: fingerprint echo, accepted
	msgReject    = 3 // coordinator → worker: refused (fingerprint mismatch)
	msgAssign    = 4 // coordinator → worker: lease one unit
	msgResult    = 5 // worker → coordinator: unit measurements + tallies
	msgHeartbeat = 6 // worker → coordinator: renew all held leases
	msgDone      = 7 // coordinator → worker: no more work, drain and exit
)

// message is anything that can write its type byte and fields into a
// frame payload.
type message interface{ encode(w *frame.Writer) }

// wireError marks protocol-level corruption (bad checksum, oversize
// frame, malformed payload): fatal for the connection, never for the run.
type wireError struct{ msg string }

func (e *wireError) Error() string { return "grid: wire: " + e.msg }

// wire reports a frame or payload failure from internal/frame as the
// grid's protocol error.
func wire(err error) error {
	if err == nil {
		return nil
	}
	return &wireError{msg: err.Error()}
}

// helloMsg opens a worker connection. The fingerprint hashes every
// option that shapes measurement results; the coordinator rejects a
// worker built against a different world, because merging its units
// would silently corrupt the study.
type helloMsg struct {
	Name        string
	Fingerprint uint64
}

func (m helloMsg) encode(w *frame.Writer) {
	w.U8(msgHello)
	w.Str32(m.Name, "hello", "name")
	w.U64(m.Fingerprint)
}

func decodeHello(r *frame.Reader) (helloMsg, error) {
	var m helloMsg
	m.Name = r.Str32("hello", "name")
	m.Fingerprint = r.U64("hello", "fingerprint")
	return m, wire(r.Done("hello", "message"))
}

type welcomeMsg struct {
	Fingerprint uint64
}

func (m welcomeMsg) encode(w *frame.Writer) {
	w.U8(msgWelcome)
	w.U64(m.Fingerprint)
}

func decodeWelcome(r *frame.Reader) (welcomeMsg, error) {
	var m welcomeMsg
	m.Fingerprint = r.U64("welcome", "fingerprint")
	return m, wire(r.Done("welcome", "message"))
}

type rejectMsg struct {
	Reason string
}

func (m rejectMsg) encode(w *frame.Writer) {
	w.U8(msgReject)
	w.Str32(m.Reason, "reject", "reason")
}

func decodeReject(r *frame.Reader) (rejectMsg, error) {
	var m rejectMsg
	m.Reason = r.Str32("reject", "reason")
	return m, wire(r.Done("reject", "message"))
}

// assignMsg leases one contiguous unit [Start, End) of day's inventory
// to the worker. Seq is the lease sequence number: every (re)assignment
// of a unit gets a fresh seq, which the result must echo, so the
// coordinator can tell a live result from one sent by a worker whose
// lease already expired.
type assignMsg struct {
	Unit  uint32
	Seq   uint64
	Day   simtime.Day
	Start uint32
	End   uint32
}

func (m assignMsg) encode(w *frame.Writer) {
	w.U8(msgAssign)
	w.U32(m.Unit)
	w.U64(m.Seq)
	w.I32(int32(m.Day))
	w.U32(m.Start)
	w.U32(m.End)
}

func decodeAssign(r *frame.Reader) (assignMsg, error) {
	var m assignMsg
	m.Unit = r.U32("assign", "unit")
	m.Seq = r.U64("assign", "seq")
	m.Day = simtime.Day(r.I32("assign", "day"))
	m.Start = r.U32("assign", "start")
	m.End = r.U32("assign", "end")
	if r.Err() == nil && m.End < m.Start {
		r.Failf("assign range [%d, %d) inverted", m.Start, m.End)
	}
	return m, wire(r.Done("assign", "message"))
}

// resultMsg carries one completed unit back: the tallies Sweep would
// have accumulated for these domains, the latency histogram, and the
// store-encoded measurement batch.
type resultMsg struct {
	Unit        uint32
	Seq         uint64
	Day         simtime.Day
	Failed      uint32
	NXDomain    uint32
	Unreachable uint32
	Retries     uint32
	Recovered   uint32
	// CacheHits/CacheMisses/CacheCoalesced are the worker resolver's
	// infrastructure-cache counter deltas across the unit.
	CacheHits      uint64
	CacheMisses    uint64
	CacheCoalesced uint64
	Latency        openintel.LatencyHistogram
	// Batch is a store.EncodeMeasurementBatch blob, sorted by domain.
	Batch []byte
}

func (m resultMsg) encode(w *frame.Writer) {
	w.U8(msgResult)
	w.U32(m.Unit)
	w.U64(m.Seq)
	w.I32(int32(m.Day))
	w.U32(m.Failed)
	w.U32(m.NXDomain)
	w.U32(m.Unreachable)
	w.U32(m.Retries)
	w.U32(m.Recovered)
	w.U64(m.CacheHits)
	w.U64(m.CacheMisses)
	w.U64(m.CacheCoalesced)
	for _, c := range m.Latency.Counts {
		w.U32(c)
	}
	w.Bytes32(m.Batch, "result", "batch")
}

func decodeResult(r *frame.Reader) (resultMsg, error) {
	var m resultMsg
	m.Unit = r.U32("result", "unit")
	m.Seq = r.U64("result", "seq")
	m.Day = simtime.Day(r.I32("result", "day"))
	m.Failed = r.U32("result", "failed")
	m.NXDomain = r.U32("result", "nxdomain")
	m.Unreachable = r.U32("result", "unreachable")
	m.Retries = r.U32("result", "retries")
	m.Recovered = r.U32("result", "recovered")
	m.CacheHits = r.U64("result", "cache hits")
	m.CacheMisses = r.U64("result", "cache misses")
	m.CacheCoalesced = r.U64("result", "cache coalesced")
	for i := range m.Latency.Counts {
		m.Latency.Counts[i] = r.U32("result", "latency bucket")
	}
	m.Batch = r.Bytes32("result", "batch")
	return m, wire(r.Done("result", "message"))
}

// bareMsg is a message that is nothing but its type: msgHeartbeat, msgDone.
type bareMsg uint8

func (m bareMsg) encode(w *frame.Writer) { w.U8(uint8(m)) }
