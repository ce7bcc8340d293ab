package main

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"kindle/internal/core"
	"kindle/internal/machine"
	"kindle/internal/obs"
	"kindle/internal/obs/monitor"
	"kindle/internal/sim"
)

// progress is a run's position for /progress and gauges: units done out of
// total (-1 while unknown), and whether the run has finished.
type progress struct {
	done, total atomic.Int64
	finished    atomic.Bool
}

func (p *progress) load() (done, total int64, frac float64, finished bool) {
	done, total, finished = p.done.Load(), p.total.Load(), p.finished.Load()
	switch {
	case finished:
		frac = 1
	case total > 0:
		frac = float64(done) / float64(total)
	}
	return done, total, frac, finished
}

// payload renders p as a /progress source under a mode's JSON names for the
// units done and their total, plus constant fields such as the shard count.
func (p *progress) payload(doneKey, totalKey string, extra map[string]any) func() any {
	return func() any {
		done, total, frac, finished := p.load()
		out := map[string]any{doneKey: done, totalKey: total, "fraction": frac, "done": finished}
		maps.Copy(out, extra)
		return out
	}
}

// listen serves -monitor over opt and announces the bound address on
// stderr; without -monitor it does nothing.
func (r *run) listen(opt monitor.Options) (err error) {
	if r.monitorAddr == "" {
		return nil
	}
	if r.mon, err = monitor.Listen(r.monitorAddr, opt); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "monitor: listening on http://%s\n", r.mon.Addr())
	return nil
}

// observe attaches the shared observers to a single-machine run: the
// monitor, whose event hub streams the tracer's events and the interval
// blocks, and the -stats-interval dumper. extra adds gauges to the
// machine's resident-footprint gauges.
func (r *run) observe(f *core.Framework, progress func() any, extra func() map[string]float64) error {
	if r.monitorAddr != "" {
		r.hub = monitor.NewHub()
		f.M.Tracer.SetSink(r.hub)
	}
	b := f.M.Ctrl.Backing() // its populated-frame counter is atomic, so scrapes are race-free
	err := r.listen(monitor.Options{
		Stats:    f.M.Stats,
		Hub:      r.hub,
		Progress: progress,
		Gauges: func() map[string]float64 {
			g := map[string]float64{
				"kindle_mem_resident_frames": float64(b.FrameCount()),
				"kindle_mem_resident_bytes":  float64(b.ResidentBytes()),
			}
			if extra != nil {
				maps.Copy(g, extra())
			}
			return g
		},
	})
	r.armIntervalDump(f.M)
	return err
}

// armIntervalDump schedules the next -stats-interval block, if any: a
// recurring simulated-time event that snapshots counter deltas à la
// `m5 dumpstats`. A crash drains the event queue, so recovery re-arms it.
func (r *run) armIntervalDump(m *machine.Machine) {
	if r.statsInterval == 0 {
		return
	}
	m.Events.Schedule(m.Clock.Now()+sim.FromDuration(r.statsInterval), "stats.interval", func(sim.Cycles) {
		r.dumpInterval(m.Stats)
		r.armIntervalDump(m)
	})
}

// dumpInterval closes one interval block and publishes it on the hub.
func (r *run) dumpInterval(st *sim.Stats) {
	mark := r.intervals.Len()
	if err := st.DumpInterval(&r.intervals); err != nil {
		fatal(err)
	}
	if r.hub != nil {
		// Hand the hub its own copy: the buffer keeps growing.
		r.hub.PublishInterval(st.IntervalCount(), bytes.Clone(r.intervals.Bytes()[mark:]))
	}
}

// finish writes a finished run's outputs — the -stats dump, -stats-out
// (the totals block, then the interval blocks), the -shard-stats-dir
// segment files and the -trace-out JSON — then holds the monitor for
// -monitor-hold.
func (r *run) finish(st *sim.Stats, tr *obs.Tracer, segments []core.SegmentStats) error {
	if r.stats {
		fmt.Print(st.Dump(""))
	}
	// Close the last interval so the per-block deltas sum to the totals.
	if r.statsInterval > 0 {
		r.dumpInterval(st)
	}
	if r.statsOut != "" {
		if err := writeStats(r.statsOut, st, r.intervals.Bytes()); err != nil {
			return err
		}
		fmt.Printf("stats written to %s (%d interval blocks)\n", r.statsOut, st.IntervalCount())
	} else {
		fmt.Print(r.intervals.String())
	}
	if r.shardStatsDir != "" {
		if err := os.MkdirAll(r.shardStatsDir, 0o755); err != nil {
			return err
		}
		for i, seg := range segments {
			if err := writeStats(filepath.Join(r.shardStatsDir, fmt.Sprintf("segment-%04d.stats", i)), seg.Stats, nil); err != nil {
				return err
			}
		}
		fmt.Printf("%d segment stats files written to %s\n", len(segments), r.shardStatsDir)
	}
	if r.traceOut != "" {
		if d := tr.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr,
				"kindle: warning: trace ring wrapped: %d events dropped (ring holds %d; the written trace is the most recent window of the run)\n",
				d, tr.Cap())
		}
		if err := writeFile(r.traceOut, tr.WriteChrome); err != nil {
			return err
		}
		fmt.Printf("trace written to %s (%d events, %d dropped)\n", r.traceOut, tr.Len(), tr.Dropped())
	}
	if r.mon != nil && r.monitorHold > 0 {
		fmt.Fprintf(os.Stderr, "monitor: run complete; holding endpoint for %s\n", r.monitorHold)
		time.Sleep(r.monitorHold)
	}
	return nil
}

// writeStats writes a gem5-format stats file: st's totals block, then the
// interval blocks, if any.
func writeStats(path string, st *sim.Stats, intervals []byte) error {
	return writeFile(path, func(w io.Writer) error {
		if err := st.WriteStatsFile(w); err != nil {
			return err
		}
		_, err := w.Write(intervals)
		return err
	})
}

// writeFile creates path, fills it with write and closes it, returning the
// first error.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}
