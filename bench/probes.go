package main

import (
	"context"
	"errors"
	"io/fs"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"whereru/internal/dns"
	"whereru/internal/iofault"
	"whereru/internal/openintel"
	"whereru/internal/simtime"
)

// The probes are pass-through implementations of the interfaces the
// program already accepts (dns.Transport, iofault.FS, openintel.Clock,
// openintel.Seeder). They are how the harness times a layer from the
// outside: the program runs unmodified and cannot tell it is measured.

// captureLimit is how many wire messages the transport probe keeps for
// the codec microbenchmark (queries and responses together).
const captureLimit = 10000

// transportProbe counts and times every exchange under the resolver.
// Exchanges number in the millions, so they are counted, not recorded
// as spans; busy time is summed across the sweep's workers.
type transportProbe struct {
	inner     dns.Transport
	exchanges atomic.Int64
	busyNS    atomic.Int64

	claimed  atomic.Int64
	captured [captureLimit][]byte
}

func (p *transportProbe) Exchange(ctx context.Context, server netip.Addr, query *dns.Message) (*dns.Message, error) {
	start := time.Now()
	resp, err := p.inner.Exchange(ctx, server, query)
	p.busyNS.Add(int64(time.Since(start)))
	p.exchanges.Add(1)
	if err == nil && p.claimed.Load() < captureLimit {
		// The query is pooled and must not be retained past Exchange, so
		// the capture is its wire form.
		if i := p.claimed.Add(2) - 2; i+1 < captureLimit {
			p.captured[i], _ = query.Encode()
			p.captured[i+1], _ = resp.Encode()
		}
	}
	return resp, err
}

// wire returns the captured messages.
func (p *transportProbe) wire() [][]byte {
	var out [][]byte
	for _, b := range p.captured {
		if b != nil {
			out = append(out, b)
		}
	}
	return out
}

// clockProbe times the world tick.
type clockProbe struct {
	inner openintel.Clock
	tr    *tracer
}

func (c clockProbe) Set(day simtime.Day) {
	c.tr.push("world.tick", 0)
	c.inner.Set(day)
	c.tr.pop()
}

// seederProbe times the daily zone snapshot.
type seederProbe struct {
	inner openintel.Seeder
	tr    *tracer
}

func (s seederProbe) ZoneSnapshot(day simtime.Day) []string {
	s.tr.push("registry.zone_snapshot", 0)
	defer s.tr.pop()
	return s.inner.ZoneSnapshot(day)
}

// fileIO is what the FS probe saw of one file.
type fileIO struct {
	bytes   int64
	writeNS int64
	syncs   int
	syncNS  int64
	// syncDone and syncBytes record, per Sync, when it completed and how
	// many bytes had been written by then: the journal's durability
	// points and its segment boundaries.
	syncDone  []time.Time
	syncBytes []int64
}

// fsProbe is a pass-through iofault.FS that times writes and fsyncs per
// path. It is given to core.Options.FS on every run of the durable
// workload, traced or not: the per-sweep durability instants it records
// are how that workload's per-sweep time includes the journal.
type fsProbe struct {
	inner iofault.FS
	tr    *tracer

	mu    sync.Mutex
	files map[string]*fileIO
}

func newFSProbe(tr *tracer) *fsProbe {
	return &fsProbe{inner: iofault.OS, tr: tr, files: make(map[string]*fileIO)}
}

// io returns what was recorded for path (zero value if never opened).
func (p *fsProbe) io(path string) fileIO {
	p.mu.Lock()
	defer p.mu.Unlock()
	if f := p.files[path]; f != nil {
		return *f
	}
	return fileIO{}
}

func (p *fsProbe) OpenFile(name string, flag int, perm fs.FileMode) (iofault.File, error) {
	f, err := p.inner.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	st := p.files[name]
	if st == nil {
		st = &fileIO{}
		p.files[name] = st
	}
	p.mu.Unlock()
	return &fileProbe{File: f, p: p, st: st}, nil
}

func (p *fsProbe) Rename(oldpath, newpath string) error { return p.inner.Rename(oldpath, newpath) }
func (p *fsProbe) Remove(name string) error             { return p.inner.Remove(name) }
func (p *fsProbe) SyncDir(dir string) error             { return p.inner.SyncDir(dir) }

type fileProbe struct {
	iofault.File
	p  *fsProbe
	st *fileIO
}

func (f *fileProbe) Write(b []byte) (int, error) {
	f.p.tr.push("fs.write", 0)
	start := time.Now()
	n, err := f.File.Write(b)
	d := time.Since(start)
	f.p.tr.pop()
	f.p.mu.Lock()
	f.st.bytes += int64(n)
	f.st.writeNS += int64(d)
	f.p.mu.Unlock()
	return n, err
}

func (f *fileProbe) Sync() error {
	f.p.tr.push("fs.fsync", 0)
	start := time.Now()
	err := f.File.Sync()
	done := time.Now()
	f.p.tr.pop()
	f.p.mu.Lock()
	f.st.syncs++
	f.st.syncNS += int64(done.Sub(start))
	f.st.syncDone = append(f.st.syncDone, done)
	f.st.syncBytes = append(f.st.syncBytes, f.st.bytes)
	f.p.mu.Unlock()
	return err
}

// discardFS accepts and forgets everything written to it: appending a
// journal over it costs the encode and nothing else.
type discardFS struct{}

func (discardFS) OpenFile(name string, _ int, _ fs.FileMode) (iofault.File, error) {
	return &discardFile{name: name}, nil
}
func (discardFS) Rename(string, string) error { return nil }
func (discardFS) Remove(string) error         { return nil }
func (discardFS) SyncDir(string) error        { return nil }

type discardFile struct {
	name string
	size int64
}

func (f *discardFile) Read([]byte) (int, error) { return 0, errors.New("discard file: not readable") }
func (f *discardFile) Write(b []byte) (int, error) {
	f.size += int64(len(b))
	return len(b), nil
}
func (f *discardFile) Seek(int64, int) (int64, error) { return f.size, nil }
func (f *discardFile) Close() error                   { return nil }
func (f *discardFile) Sync() error                    { return nil }
func (f *discardFile) Truncate(size int64) error      { f.size = size; return nil }
func (f *discardFile) Stat() (fs.FileInfo, error) {
	return nil, errors.New("discard file: no stat")
}
func (f *discardFile) Name() string { return f.name }
