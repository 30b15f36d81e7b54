package core

import (
	"fmt"

	"whereru/internal/openintel"
	"whereru/internal/simtime"
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
		Analyzer:    s.Analyzer,
		Sanctioned:  s.sanctionedFilter(),
		DenseCutoff: simtime.DenseWindowStart,
	})
}

// FoldReplay folds every record of a journal replay into eng, in order:
// the cold prime of a followed study.
func FoldReplay(eng *stream.Engine, replay *store.JournalReplay) error {
	for _, rec := range replay.Sweeps {
		if _, err := eng.Fold(rec); err != nil {
			return err
		}
	}
	return nil
}

// LoadCheckpointReplay is LoadCheckpoint, additionally returning the
// replay itself — records and all — so follow mode knows the journal
// offset to tail from and can prime an engine with the same records the
// store loaded.
func LoadCheckpointReplay(opts Options, path string) (*Study, *store.JournalReplay, error) {
	return loadCheckpoint(opts, path, true)
}

// loadCheckpoint replays the journal at path into a fresh study. With
// keep the whole replay is decoded first and then applied; without, each
// segment streams into the store and the returned replay carries no
// measurements. Both leave the same store and stats.
func loadCheckpoint(opts Options, path string, keep bool) (*Study, *store.JournalReplay, error) {
	s, err := New(opts)
	if err != nil {
		return nil, nil, err
	}
	var replay *store.JournalReplay
	if keep {
		if replay, err = store.VerifyJournal(path); err == nil {
			s.Stats = (&openintel.Pipeline{Store: s.Store}).ReplayJournal(replay)
		}
	} else if replay, err = store.ReplayJournalFile(path, s.Store); err == nil {
		s.Stats = openintel.JournaledStats(replay)
	}
	if err != nil {
		return nil, nil, fmt.Errorf("core: loading checkpoint: %w", err)
	}
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
