package bench

import (
	"bytes"
	"fmt"
	"strings"

	"kindle/internal/gemos"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
)

// intervalCols selects the counters the intervals experiment tabulates —
// one hot counter per subsystem so phase behavior (fault storm at the
// start, steady-state stores, periodic checkpoints) is visible per column.
var intervalCols = []string{
	"cpu.store",
	"nvm.write",
	"os.fault_demand",
	"persist.checkpoints",
}

// IntervalsRow is one dump window: the counter deltas accumulated between
// two consecutive interval dumps.
type IntervalsRow struct {
	Index  int
	Deltas map[string]uint64
}

// IntervalsResult is the per-phase interval-stats experiment: a rebuild-
// scheme persistence run dumped every checkpoint period, à la `m5
// dumpstats`, showing how activity shifts across execution phases.
type IntervalsResult struct {
	Rows   []IntervalsRow
	Totals map[string]uint64
}

// Intervals runs the sequential allocate-and-access micro-benchmark under
// rebuild-scheme checkpointing while snapshotting interval stats each
// checkpoint period, then parses the emitted gem5 blocks back.
func Intervals(opt Options) (*IntervalsResult, error) {
	interval := opt.scaleInterval(ckptInterval)
	f, p, err := newPersistenceRun(persist.Rebuild, interval)
	if err != nil {
		return nil, err
	}

	var buf bytes.Buffer
	iv := sim.FromDuration(interval)
	var arm func()
	arm = func() {
		f.M.Events.Schedule(f.M.Clock.Now()+iv, "stats.interval", func(sim.Cycles) {
			if err == nil {
				err = f.M.Stats.DumpInterval(&buf)
			}
			arm()
		})
	}
	arm()

	size := opt.scaleBytes(64 << 20)
	k := f.K
	a, merr := k.Mmap(p, 0, size, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if merr != nil {
		return nil, merr
	}
	// First pass faults every page in; later passes are steady-state
	// stores. Run until three periodic dumps have fired so the table shows
	// the fault-storm, steady-state, and checkpoint-heavy windows (bounded
	// pass count as a safety net).
	pages := size / mem.PageSize
	for pass := 0; f.M.Stats.IntervalCount() < 3 && pass < 200; pass++ {
		for i := uint64(0); i < pages && f.M.Stats.IntervalCount() < 3; i++ {
			if _, aerr := f.M.Core.Access(a+i*mem.PageSize, true, 8); aerr != nil {
				return nil, aerr
			}
			if i%tickEvery == 0 {
				k.Tick()
			}
		}
	}
	if err != nil {
		return nil, err
	}
	if err := f.M.Stats.DumpInterval(&buf); err != nil {
		return nil, err
	}

	blocks, err := sim.ParseStatsBlocks(&buf)
	if err != nil {
		return nil, err
	}
	res := &IntervalsResult{Totals: map[string]uint64{}}
	for _, name := range intervalCols {
		res.Totals[name] = f.M.Stats.Get(name)
	}
	for _, b := range blocks {
		row := IntervalsRow{Index: int(b["interval.index"]), Deltas: map[string]uint64{}}
		for _, name := range intervalCols {
			row.Deltas[name] = b[name]
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the interval table.
func (r *IntervalsResult) Render() string {
	var b strings.Builder
	b.WriteString("Interval stats: per-dump counter deltas (rebuild scheme, 1 dump per checkpoint period)\n")
	fmt.Fprintf(&b, "%-9s", "interval")
	for _, name := range intervalCols {
		fmt.Fprintf(&b, " %20s", name)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9d", row.Index)
		for _, name := range intervalCols {
			fmt.Fprintf(&b, " %20d", row.Deltas[name])
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "%-9s", "total")
	for _, name := range intervalCols {
		fmt.Fprintf(&b, " %20d", r.Totals[name])
	}
	b.WriteString("\n")
	return b.String()
}

// CheckShape verifies the m5-dumpstats invariants: at least two interval
// blocks, consecutive indices, and column deltas summing to the run totals.
func (r *IntervalsResult) CheckShape() error {
	if len(r.Rows) < 2 {
		return fmt.Errorf("intervals: %d blocks, want >= 2", len(r.Rows))
	}
	for i, row := range r.Rows {
		if row.Index != i+1 {
			return fmt.Errorf("intervals: block %d has index %d", i, row.Index)
		}
	}
	for _, name := range intervalCols {
		var sum uint64
		for _, row := range r.Rows {
			sum += row.Deltas[name]
		}
		if sum != r.Totals[name] {
			return fmt.Errorf("intervals: %s deltas sum to %d, total %d", name, sum, r.Totals[name])
		}
	}
	if r.Totals["persist.checkpoints"] == 0 {
		return fmt.Errorf("intervals: no checkpoints fired")
	}
	return nil
}
