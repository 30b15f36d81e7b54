package analysis

import (
	"whereru/internal/simtime"
	"whereru/internal/store"
)

// SweepCount is one day of the per-sweep measurement counts behind
// /api/v1/sweeps: how many domains' epochs cover the day and how their
// configs classify.
type SweepCount struct {
	Day         simtime.Day
	Measured    int
	Failed      int
	NXDomain    int
	Unreachable int
}

// SweepCount returns the per-sweep-count series accumulator.
func (a *Analyzer) SweepCount(filter Filter) *Accumulator[SweepCount] {
	return newAccumulator(filter, nil,
		func(_ simtime.Day, cfg store.Config, keys []colKey) []colKey {
			keys = append(keys, colKey{kind: colTotal})
			switch {
			case cfg.Failed:
				keys = append(keys, colKey{kind: colFailed})
			case len(cfg.NSHosts) == 0:
				keys = append(keys, colKey{kind: colNXDomain})
			case len(cfg.NSAddrs) == 0:
				keys = append(keys, colKey{kind: colUnreachable})
			}
			return keys
		},
		func(days []simtime.Day, _ []bool, c columns) []SweepCount {
			measured, failed := c.col(colKey{kind: colTotal}), c.col(colKey{kind: colFailed})
			nxdomain, unreachable := c.col(colKey{kind: colNXDomain}), c.col(colKey{kind: colUnreachable})
			out := make([]SweepCount, 0, len(days))
			for i, day := range days {
				out = append(out, SweepCount{Day: day, Measured: measured[i], Failed: failed[i],
					NXDomain: nxdomain[i], Unreachable: unreachable[i]})
			}
			return out
		})
}

// SweepCountSeries computes the per-sweep counts for the given days (any
// order); the sweeps endpoint passes the store's sweep days.
func (a *Analyzer) SweepCountSeries(days []simtime.Day, filter Filter) []SweepCount {
	return cold(a, days, filter, (*Analyzer).SweepCount)
}
