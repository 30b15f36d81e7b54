package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the harness around
// the public call (nothing inside the program is instrumented). Times
// are nanoseconds since the tracer started.
type span struct {
	Name  string `json:"name"`
	Start int64  `json:"start_ns"`
	End   int64  `json:"end_ns"`
	// Parent is the index of the span that caused this one, -1 for a root.
	Parent int `json:"parent"`
	// ID ties the spans of one sweep (its day number) or one request (its
	// sequence number) together.
	ID int64 `json:"id"`
}

// tracer keeps spans in memory until the workload ends. A nil tracer
// records nothing, so the untraced run goes through the same harness
// code without the bookkeeping.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	// stack is the open spans of the goroutine driving the workload;
	// push/pop parent new spans under its top. Concurrent recorders
	// (request clients) use begin/end with an explicit parent instead.
	stack []int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: now, Parent: parent, ID: id})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[i].End = now
	t.mu.Unlock()
}

// record adds a root span whose start and end were observed elsewhere.
func (t *tracer) record(name string, id int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: -1, ID: id})
	t.mu.Unlock()
}

// push opens a span under the driving goroutine's current span, taking
// that span's id when id is 0.
func (t *tracer) push(name string, id int64) {
	if t == nil {
		return
	}
	parent := -1
	t.mu.Lock()
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
		if id == 0 {
			id = t.spans[parent].ID
		}
	}
	t.mu.Unlock()
	i := t.begin(name, parent, id)
	t.mu.Lock()
	t.stack = append(t.stack, i)
	t.mu.Unlock()
}

// pop closes the span the matching push opened.
func (t *tracer) pop() {
	if t == nil {
		return
	}
	t.mu.Lock()
	n := len(t.stack)
	i := t.stack[n-1]
	t.stack = t.stack[:n-1]
	t.mu.Unlock()
	t.end(i)
}

// total sums the durations of every span called name.
func (t *tracer) total(name string) time.Duration {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// selfTimes attributes to each span name its spans' durations minus the
// part of each interval its direct children cover (overlapping children
// are merged first, so concurrent children are not counted twice).
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		out[s.Name] += time.Duration(s.End - s.Start - covered(children[i], s.Start, s.End))
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	end := lo
	for _, iv := range ivs {
		a, b := iv[0], iv[1]
		if a < end {
			a = end
		}
		if b > hi {
			b = hi
		}
		if b > a {
			total += b - a
			end = b
		}
	}
	return total
}

// traceFile is what -trace writes per workload.
type traceFile struct {
	Workload string             `json:"workload"`
	Spans    []span             `json:"spans"`
	SelfS    map[string]float64 `json:"self_s"`
}

// flush writes the spans and their self times to path.
func (t *tracer) flush(workload, path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	tf := traceFile{Workload: workload, Spans: spans, SelfS: map[string]float64{}}
	for name, d := range selfTimes(spans) {
		tf.SelfS[name] = d.Seconds()
	}
	body, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(body, '\n'), 0o644)
}
