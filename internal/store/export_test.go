package store

import (
	"whereru/internal/frame"
	"whereru/internal/simtime"
)

// DecodeMeasurementBatch parses a batch written by EncodeMeasurementBatch.
// Every count is validated against the bytes actually present before
// anything is allocated, and trailing garbage is rejected — the same
// strictness the journal decoder applies to its payloads.
func DecodeMeasurementBatch(b []byte) (simtime.Day, []Measurement, error) {
	if len(b) > frame.MaxPayload {
		return 0, nil, corrupt("batch: %d bytes exceeds limit %d", len(b), frame.MaxPayload)
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
