package store

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"whereru/internal/simtime"
)

// The files under testdata/golden pin absolute bytes: the store
// equivalence test cannot see a framing change (ReferenceStore.WriteTo
// shares the section writer) and every other round-trip test reads with
// the code that wrote. store-v3.bin and journal-v1.bin were written by
// the commit before internal/frame existed (0e856d7), from the inputs
// goldenSweeps builds, through that commit's own section and segment
// writers; journal-v1.bin is now only ever refused. batch.bin and
// journal-v2.bin were written once, by the commit after 4a0c376 that
// introduced journal version 2 (the set-table measurement list), from
// goldenJournalSweeps, because that layout change is what they pin;
// journal-v2.bin is now only ever refused too. journal.bin was written
// once, from goldenJournalSweeps, by the commit that introduced journal
// version 3 (four sweep counters, the retry counters no longer
// journaled). Never regenerate them from the current code — a diff here
// is an on-disk format change.

// goldenSweeps is a sweep, a missing day and a second sweep in which one
// domain moves hosting, one starts failing and one is new. Measurements
// are listed unsorted and configs unnormalized on purpose.
func goldenSweeps() []JournalSweep {
	d1, d2, d3 := simtime.Date(2022, 2, 18), simtime.Date(2022, 2, 21), simtime.Date(2022, 2, 24)
	regru := Config{
		NSHosts:   []string{"ns2.reg.ru.", "ns1.reg.ru."},
		NSAddrs:   addrList("194.58.117.11", "176.99.13.11"),
		ApexAddrs: addrList("194.58.112.174"),
		MXHosts:   []string{"mx2.yandex.net.", "mx1.yandex.net."},
	}
	abroad := Config{
		NSHosts:   []string{"kate.ns.cloudflare.com.", "bob.ns.cloudflare.com."},
		NSAddrs:   addrList("108.162.192.125", "172.64.33.104", "173.245.59.104"),
		ApexAddrs: addrList("104.21.5.9", "172.67.133.1"),
	}
	idn := Config{NSHosts: []string{"ns1.xn--80aswg.xn--p1ai."}, NSAddrs: addrList("193.232.146.1")}
	return []JournalSweep{
		{Day: d1, Stats: JournalStats{Domains: 3, Failed: 0, NXDomain: 1, Unreachable: 0},
			Measurements: []Measurement{
				{Domain: "sberbank.ru.", Day: d1, Config: regru},
				{Domain: "xn--80aswg.xn--p1ai.", Day: d1, Config: idn},
				{Domain: "gazeta.ru.", Day: d1, Config: abroad},
			}},
		{Day: d2, Missing: true},
		{Day: d3, Stats: JournalStats{Domains: 4, Failed: 1, NXDomain: 0, Unreachable: 1},
			Measurements: []Measurement{
				{Domain: "xn--80aswg.xn--p1ai.", Day: d3, Config: Config{Failed: true}},
				{Domain: "sberbank.ru.", Day: d3, Config: regru},
				{Domain: "novaya.su.", Day: d3, Config: Config{NSHosts: []string{"ns.hoster.de."}}},
				{Domain: "gazeta.ru.", Day: d3, Config: regru},
			}},
	}
}

// goldenJournalSweeps is goldenSweeps with three more domains in the last
// sweep, for the journal and batch fixtures: two that share a long prefix
// (the front-coded names) and one whose NS and MX sets are new in the
// middle of the segment (the set table's first-use order). The store
// fixture predates them.
func goldenJournalSweeps() []JournalSweep {
	sweeps := goldenSweeps()
	last := &sweeps[2]
	abroad := sweeps[0].Measurements[2].Config
	rzd := Config{
		NSHosts:   []string{"ns2.rzd.ru.", "ns1.rzd.ru."},
		NSAddrs:   addrList("217.175.140.71", "217.175.140.70"),
		ApexAddrs: addrList("217.175.155.100", "217.175.140.71"),
		MXHosts:   []string{"mx2.rzd.ru.", "mx1.rzd.ru."},
	}
	last.Stats.Domains = 7
	last.Measurements = append(last.Measurements,
		Measurement{Domain: "krasnodar-vodokanal.ru.", Day: last.Day, Config: abroad},
		Measurement{Domain: "rzd.ru.", Day: last.Day, Config: rzd},
		Measurement{Domain: "krasnodar-vodokanal-service.ru.", Day: last.Day, Config: abroad})
	return sweeps
}

// canonicalSweep is rec as the journal stores it: measurements sorted by
// domain, configs normalized.
func canonicalSweep(rec JournalSweep) JournalSweep {
	ms := append([]Measurement(nil), rec.Measurements...)
	sort.Slice(ms, func(i, k int) bool { return ms[i].Domain < ms[k].Domain })
	for i := range ms {
		ms[i].Config = ms[i].Config.Normalize()
	}
	rec.Measurements = ms
	return rec
}

func goldenFile(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func goldenStore() *Store {
	s := New()
	for _, rec := range goldenSweeps() {
		if rec.Missing {
			s.MarkMissingSweep(rec.Day)
			continue
		}
		s.BeginSweep(rec.Day)
		for _, m := range rec.Measurements {
			s.Add(m)
		}
	}
	return s
}

func TestGoldenStoreBytes(t *testing.T) {
	want := goldenFile(t, "store-v3.bin")
	var buf bytes.Buffer
	if _, err := goldenStore().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("v3 store bytes changed: wrote %d bytes, fixture has %d", buf.Len(), len(want))
	}
	// The fixture reads back to the same store, strictly and tolerantly,
	// and re-encodes to itself.
	got, err := Read(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if _, rec, err := ReadRecover(bytes.NewReader(want)); err != nil || rec.Damaged || rec.GoodBytes != int64(len(want)) {
		t.Fatalf("ReadRecover on the fixture: %+v, %v", rec, err)
	}
	buf.Reset()
	if _, err := got.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatal("fixture does not re-encode to itself")
	}
}

func TestGoldenJournalBytes(t *testing.T) {
	want := goldenFile(t, "journal.bin")
	path := filepath.Join(t.TempDir(), "j.wrjl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range goldenJournalSweeps() {
		if err := j.AppendSweep(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("journal bytes changed: wrote %d bytes, fixture has %d", len(got), len(want))
	}
	replay, err := DecodeJournal(bytes.NewReader(want))
	if err != nil {
		t.Fatal(err)
	}
	if replay.Torn() || replay.GoodBytes != int64(len(want)) || len(replay.Sweeps) != 3 {
		t.Fatalf("replay of the fixture: good=%d torn=%d sweeps=%d", replay.GoodBytes, replay.TornBytes, len(replay.Sweeps))
	}
	// What the journal holds is the sorted, normalized form of the input.
	for i, rec := range goldenJournalSweeps() {
		if want := canonicalSweep(rec); !reflect.DeepEqual(replay.Sweeps[i], want) {
			t.Errorf("segment %d decoded to\n %+v\nwant\n %+v", i, replay.Sweeps[i], want)
		}
	}
}

func TestGoldenBatchBytes(t *testing.T) {
	want := goldenFile(t, "batch.bin")
	rec := canonicalSweep(goldenJournalSweeps()[2])
	got, err := EncodeMeasurementBatch(rec.Day, rec.Measurements)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("batch bytes changed: wrote %d bytes, fixture has %d", len(got), len(want))
	}
	day, ms, err := DecodeMeasurementBatch(want)
	if err != nil {
		t.Fatal(err)
	}
	if day != rec.Day || !reflect.DeepEqual(ms, rec.Measurements) {
		t.Errorf("fixture decoded to day %v\n %+v\nwant %v\n %+v", day, ms, rec.Day, rec.Measurements)
	}
}
