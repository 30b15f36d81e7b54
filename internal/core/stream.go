package core

import (
	"context"
	"fmt"

	"whereru/internal/openintel"
	"whereru/internal/store"
	"whereru/internal/stream"
)

// This file wires the incremental engine (internal/stream) to a Study:
// building an engine with the exact analysis context the batch figure
// methods use, priming it from a journal replay, and applying follow-mode
// journal segments to the study's store/stats.

// NewStreamEngine returns an incremental engine bound to the study's
// analyzer, sanctioned-domain filter and dense-window cutoff — the same
// inputs Fig1..Fig5/Hosting/Mail/Reachability/RouteLatency consult, so a
// fully-folded engine reproduces those methods byte for byte.
func (s *Study) NewStreamEngine() *stream.Engine {
	return stream.New(stream.Config{
		Analyzer:   s.Analyzer,
		Sanctioned: s.sanctionedFilter(),
	})
}

// FoldReplay primes eng from the journal file replay was loaded from:
// priming is following the part of the journal that already exists. The
// reader follow mode continues with (store.Tailer) reads the loaded
// records again from the header up to replay.GoodBytes, each verified
// segment folded and let go before the next is read. It never waits, and
// a file that no longer holds exactly those records below GoodBytes is an
// error: what it returns nil for is the prime of what the store loaded.
func FoldReplay(eng *stream.Engine, replay *store.JournalReplay) error {
	tl, err := store.OpenTail(replay.Path, 0)
	if err != nil {
		return err
	}
	defer tl.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // every byte asked for was there at the load: try, never wait
	for _, want := range replay.Sweeps {
		rec, err := tl.Next(ctx)
		if err == nil && (rec.Day != want.Day || rec.Missing != want.Missing || rec.Stats != want.Stats) {
			err = fmt.Errorf("found the one for %s", rec.Day)
		}
		if err != nil {
			return fmt.Errorf("core: %s changed since it was loaded: segment for %s: %w", replay.Path, want.Day, err)
		}
		if _, err := eng.Fold(rec); err != nil {
			return err
		}
	}
	if tl.Offset() != replay.GoodBytes {
		return fmt.Errorf("core: %s changed since it was loaded: %d segments end at offset %d, not %d", replay.Path, len(replay.Sweeps), tl.Offset(), replay.GoodBytes)
	}
	return nil
}

// LoadCheckpointReplay is LoadCheckpoint, additionally returning the
// replay: Day, Missing and Stats per record (each segment streamed into
// the store; no measurements are kept), the journal offset follow mode
// tails from, and the path FoldReplay primes an engine from.
func LoadCheckpointReplay(opts Options, path string) (*Study, *store.JournalReplay, error) {
	s, err := New(opts)
	if err != nil {
		return nil, nil, err
	}
	replay, err := store.ReplayJournalFile(path, s.Store)
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading checkpoint: %w", err)
	}
	s.Stats = openintel.JournaledStats(replay)
	if replay.Torn() {
		s.Opts.Progress("warning: checkpoint has a torn tail (%d bytes ignored)", replay.TornBytes)
	}
	s.Sweeps = s.Store.Sweeps()
	s.Opts.Progress("loaded %d journaled sweeps from %s", len(replay.Sweeps), path)
	return s, replay, nil
}

// ApplySweep applies one follow-mode journal segment to the study: the
// store mutation ReplayJournal performs for the record
// (openintel.ApplyJournaled), plus the Sweeps/Stats bookkeeping Collect
// performs for a live sweep.
func (s *Study) ApplySweep(rec store.JournalSweep) {
	if st, swept := openintel.ApplyJournaled(s.Store, rec); swept {
		s.Sweeps = append(s.Sweeps, rec.Day)
		s.Stats = append(s.Stats, st)
	}
}

var _ Series = (*stream.Engine)(nil)
