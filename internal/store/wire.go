package store

import (
	"fmt"

	"whereru/internal/frame"
	"whereru/internal/simtime"
)

// Measurement batches are one sweep day's observations, serialized in the
// measurement list layout the journal uses. No program writes them: the
// bench harness digests journals through EncodeMeasurementBatch, and
// DecodeMeasurementBatch judges that encoder in the golden and fuzz round
// trips.
//
// Layout:
//
//	day i32 | measurement list (codec.go: the one layout and encoder)
//
// The batch carries no framing or checksum of its own, and is bounded by
// frame.MaxPayload like a journal segment.

// EncodeMeasurementBatch serializes one day's measurements in the order
// given (callers that need a canonical order sort by domain first). Every
// measurement must carry the batch day; configs are normalized in place.
func EncodeMeasurementBatch(day simtime.Day, ms []Measurement) ([]byte, error) {
	for _, m := range ms {
		if m.Day != day {
			return nil, fmt.Errorf("store: batch for %s holds a measurement for %s (%s)", day, m.Day, m.Domain)
		}
	}
	var list ListBuilder
	for _, m := range ms {
		list.Add(m)
	}
	var e encoder
	e.I32(int32(day))
	list.writeTo(&e)
	if err := e.Err(); err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	if n := len(e.Bytes()); n > frame.MaxPayload {
		return nil, fmt.Errorf("store: batch for %s is %d bytes (limit %d)", day, n, frame.MaxPayload)
	}
	return e.Bytes(), nil
}
