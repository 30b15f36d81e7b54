package store

import (
	"fmt"

	"whereru/internal/frame"
	"whereru/internal/simtime"
)

// Measurement batches are one sweep day's observations for a contiguous
// slice of the zone inventory, serialized in the measurement list layout
// the journal uses. No program writes them: the bench harness digests
// journals through EncodeMeasurementBatch, DecodeMeasurementBatch judges
// that encoder in the golden and fuzz round trips, and the retired grid's
// wire codec (internal/grid, which no program links) embeds one in its
// result frame.
//
// Layout:
//
//	day i32 | measurement list (codec.go: the one layout and encoder)
//
// The batch carries no framing or checksum of its own — the transport
// that embeds it is responsible for integrity, exactly as the journal's
// segment framing is for journal payloads.

// MaxBatchBytes bounds one encoded batch. It leaves a kilobyte of the
// frame limit for an envelope around the batch (the grid codec's result
// message adds ~160 bytes of tallies and a latency histogram), so any
// batch this codec accepts fits a frame.
const MaxBatchBytes = frame.MaxPayload - 1<<10

// EncodeMeasurementBatch serializes one day's measurements in the order
// given (callers that need a canonical order sort by domain first). Every
// measurement must carry the batch day; configs are normalized in place.
func EncodeMeasurementBatch(day simtime.Day, ms []Measurement) ([]byte, error) {
	for _, m := range ms {
		if m.Day != day {
			return nil, fmt.Errorf("store: batch for %s holds a measurement for %s (%s)", day, m.Day, m.Domain)
		}
	}
	var e encoder
	e.I32(int32(day))
	e.measurements(ms)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	if n := len(e.Bytes()); n > MaxBatchBytes {
		return nil, fmt.Errorf("store: batch for %s is %d bytes (limit %d)", day, n, MaxBatchBytes)
	}
	return e.Bytes(), nil
}

// DecodeMeasurementBatch parses a batch written by EncodeMeasurementBatch.
// Every count is validated against the bytes actually present before
// anything is allocated, and trailing garbage is rejected — the same
// strictness the journal decoder applies to its payloads.
func DecodeMeasurementBatch(b []byte) (simtime.Day, []Measurement, error) {
	if len(b) > MaxBatchBytes {
		return 0, nil, corrupt("batch: %d bytes exceeds limit %d", len(b), MaxBatchBytes)
	}
	r := byteReader{frame.NewReader(b)}
	day := simtime.Day(r.I32("batch", "day"))
	var it measurementIter
	r.beginMeasurements(&it, len(b))
	ms := r.measurements(&it, day)
	if r.Done("", "batch") != nil {
		return 0, nil, r.failure()
	}
	return day, ms, nil
}
