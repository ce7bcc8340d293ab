// Command kindle runs one full-system simulation: it loads a disk image
// produced by kindle-prep (or traces a benchmark on the fly), boots the
// machine + gemOS, optionally enables process persistence, SSP or HSCC,
// replays the application, and reports execution statistics. With
// -crash-at it also demonstrates full process persistence: the machine
// power-fails mid-run, reboots, recovers the process from NVM and finishes
// the remaining trace.
//
// Every mode takes one run path. parseFlags reads the command line into
// one options value and refuses, naming the flag, every combination in its
// refusals table. A replay then boots a cold machine or, with -snapshot-in,
// resumes one frozen by -snapshot-out; -traffic drives a synthetic
// multi-tenant load on one machine instead; -shards replays a v2 image
// across independent machines and merges their stats. Each mode hands its
// stats registry, gauges and progress to the same monitor (-monitor) and
// output path (-stats, -stats-out with -stats-interval blocks,
// -shard-stats-dir, -trace-out, -monitor-hold).
//
// Usage:
//
//	kindle -image images/Ycsb_mem.img -persist rebuild -interval 10ms -crash-at 0.5
//	kindle -benchmark Gapbs_pr -small -ssp 5ms
//	kindle -benchmark Ycsb_mem -small -hscc 25
//	kindle -image images/Ycsb_mem.img -snapshot-out warm.snap -snapshot-at 4096
//	kindle -image images/Ycsb_mem.img -snapshot-in warm.snap
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"kindle/internal/core"
	"kindle/internal/hscc"
	"kindle/internal/machine"
	"kindle/internal/obs"
	"kindle/internal/obs/monitor"
	"kindle/internal/prep"
	"kindle/internal/sim"
	"kindle/internal/ssp"
	"kindle/internal/trace"
)

func main() {
	o, err := parseFlags(os.Args[1:])
	if errors.Is(err, flag.ErrHelp) {
		return
	}
	if err != nil {
		fatal(err)
	}
	r := &run{options: o}
	r.prog.total.Store(-1)
	switch {
	case o.shards > 0:
		err = r.sharded()
	case o.trafficSpec != "":
		err = r.traffic()
	default:
		err = r.replay()
	}
	if r.mon != nil {
		r.mon.Close()
	}
	if err != nil {
		fatal(err)
	}
}

// run is one kindle invocation: its options plus the observers every mode
// shares — the /progress position, the monitor with its event hub, and the
// -stats-interval blocks.
type run struct {
	options
	prog      progress
	hub       *monitor.Hub
	mon       *monitor.Server
	intervals bytes.Buffer
}

// replay replays one trace on one machine: a cold boot, or the machine
// frozen in a -snapshot-in file, fast-forwarded to its captured record.
func (r *run) replay() error {
	src, err := openSource(r.options)
	if err != nil {
		return err
	}
	defer src.Close()
	f, rep, err := r.launch(src)
	if err != nil {
		return err
	}
	if r.mon != nil {
		r.prog.total.Store(int64(rep.Total()))
		r.prog.done.Store(int64(rep.Consumed()))
		rep.OnStep = func(consumed, _ int) { r.prog.done.Store(int64(consumed)) }
	}

	var sspCtl *ssp.Controller
	if r.sspInterval > 0 {
		cfg := ssp.DefaultConfig()
		cfg.ConsistencyInterval = sim.FromDuration(r.sspInterval)
		if sspCtl, err = f.EnableSSP(cfg); err != nil {
			return err
		}
		sspCtl.Enable(rep.NVMRange())
	}
	var hsccCtl *hscc.Controller
	if r.hsccThreshold > 0 {
		cfg := hscc.DefaultConfig()
		cfg.FetchThreshold = uint32(r.hsccThreshold)
		if hsccCtl, err = f.EnableHSCC(rep.P, cfg); err != nil {
			return err
		}
		hsccCtl.Start()
	}
	if r.persistMode != "" { // a resumed manager re-armed its own checkpoint
		f.Manager().Start()
	}

	switch {
	case r.snapshotIn != "":
		fmt.Printf("resuming %s from snapshot at record %d (t=%.3f ms)\n",
			src.Benchmark(), rep.Consumed(), f.M.ElapsedMillis())
	case rep.Total() >= 0:
		fmt.Printf("replaying %s: %d records on %s\n", src.Benchmark(), rep.Total(), "3GB DRAM + 2GB NVM @ 3GHz")
	default:
		fmt.Printf("replaying %s (streamed) on %s\n", src.Benchmark(), "3GB DRAM + 2GB NVM @ 3GHz")
	}
	if r.snapshotOut != "" {
		if err := r.capture(f, rep); err != nil {
			return err
		}
	}
	crashed := false
	if r.crashAt > 0 {
		if rep.Total() < 0 {
			return fmt.Errorf("-crash-at needs the trace length, which this source cannot report")
		}
		if at := int(float64(rep.Total()) * r.crashAt); at > 0 {
			if err := r.crashAndRecover(f, rep, at); err != nil {
				return err
			}
			crashed = true
		}
	}
	if err := rep.Run(); err != nil && !crashed {
		return err
	} else if err != nil {
		// After a crash the replay cursor may point into VMAs restored
		// from the checkpoint; surviving NVM areas keep working.
		fmt.Println("note: post-crash replay stopped:", err)
	}
	// Optional idle tail: simulated time keeps passing with no instructions
	// in flight, so checkpoint/migration/scheduler timers keep firing.
	if r.idleAfter > 0 {
		f.RunIdle(r.idleAfter, r.idleTick)
	}
	r.prog.done.Store(int64(rep.Consumed()))
	r.prog.finished.Store(true)
	if sspCtl != nil {
		sspCtl.Disable()
	}
	if hsccCtl != nil {
		hsccCtl.Stop()
	}

	fmt.Printf("execution time: %.3f ms simulated (%d cycles)\n", f.M.ElapsedMillis(), f.M.Clock.Now())
	fmt.Printf("kernel share:   %.1f%%\n",
		100*float64(f.M.Stats.Get("cpu.kernel_cycles"))/float64(f.M.Clock.Now()))
	return r.finish(f.M.Stats, f.M.Tracer, nil)
}

// launch yields the replay's machine and replay: a cold boot with the
// -persist scheme attached, or the machine frozen in the -snapshot-in file
// (which carries its own persistence state). The observers attach before a
// cold replay launches, so they see it from its first record.
func (r *run) launch(src trace.RecordSource) (*core.Framework, *core.Replay, error) {
	progress := r.prog.payload("records_replayed", "records_total", nil)
	if r.snapshotIn != "" {
		file, err := os.Open(r.snapshotIn)
		if err != nil {
			return nil, nil, err
		}
		snap, err := core.LoadSnapshot(file)
		file.Close()
		if err != nil {
			return nil, nil, err
		}
		f, rep, err := core.RunFromSnapshot(snap, src)
		if err != nil {
			return nil, nil, err
		}
		return f, rep, r.observe(f, progress, decodeGauges(src))
	}
	f := core.New(r.machineConfig(machine.DefaultConfig()))
	if err := r.observe(f, progress, decodeGauges(src)); err != nil {
		return nil, nil, err
	}
	if err := r.enablePersistence(f); err != nil {
		return nil, nil, err
	}
	_, rep, err := f.LaunchStream(src)
	return f, rep, err
}

// machineConfig returns cfg with the -trace-out categories switched on.
func (r *run) machineConfig(cfg machine.Config) machine.Config {
	if r.traceOut != "" {
		cfg.Trace = obs.Config{Categories: r.traceMask}
	}
	return cfg
}

// enablePersistence attaches the -persist scheme, if any, to f.
func (r *run) enablePersistence(f *core.Framework) error {
	if r.persistMode == "" {
		return nil
	}
	_, err := f.EnablePersistence(schemes[r.persistMode], r.interval)
	return err
}

// capture steps the replay to -snapshot-at and freezes the framework into
// the -snapshot-out file. The capture point rounds up to a tick boundary:
// tick firing is consumed-count-based, so a boundary-aligned snapshot
// resumes on exactly the cold run's event trajectory. The run keeps going;
// the frame store forks copy-on-write.
func (r *run) capture(f *core.Framework, rep *core.Replay) error {
	at := r.snapshotAt
	if at%core.TickEvery != 0 {
		at += core.TickEvery - at%core.TickEvery
	}
	if at > 0 {
		if _, err := rep.Step(at); err != nil {
			return err
		}
	}
	if err := writeFile(r.snapshotOut, f.Snapshot(rep).Save); err != nil {
		return err
	}
	fmt.Printf("snapshot written to %s at record %d (t=%.3f ms)\n",
		r.snapshotOut, rep.Consumed(), f.M.ElapsedMillis())
	return nil
}

// crashAndRecover steps the replay to record at, checkpoints (-crash-at
// requires -persist), power-fails the machine, recovers the process from
// NVM and rebinds the replay to it. The crash drains the event queue, so
// the interval dumper is re-armed.
func (r *run) crashAndRecover(f *core.Framework, rep *core.Replay, at int) error {
	if _, err := rep.Step(at); err != nil {
		return err
	}
	f.Manager().Checkpoint()
	fmt.Printf("-- crash injected at record %d (t=%.3f ms) --\n", at, f.M.ElapsedMillis())
	f.Crash()
	procs, err := f.Recover(r.interval)
	if err != nil {
		return err
	}
	fmt.Printf("-- recovered %d process(es); resuming --\n", len(procs))
	if len(procs) > 0 {
		if err := rep.Rebind(procs[0]); err != nil {
			return err
		}
		f.K.Switch(procs[0])
	}
	if mgr := f.Manager(); mgr != nil {
		mgr.Start()
	}
	r.armIntervalDump(f.M)
	return nil
}

// sharded replays a v2 image partitioned across independent machine
// instances (core.ReplaySharded) and reports the deterministically merged
// stats.
func (r *run) sharded() error {
	err := r.listen(monitor.Options{
		Progress: r.prog.payload("records_replayed", "records_total", map[string]any{"shards": r.shards}),
		Gauges: func() map[string]float64 {
			done, total, frac, _ := r.prog.load()
			return map[string]float64{
				"kindle_shard_records_replayed": float64(done),
				"kindle_shard_records_total":    float64(total),
				"kindle_shard_fraction":         frac,
				"kindle_shards":                 float64(r.shards),
			}
		},
	})
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := core.ReplayShardedFile(r.image, core.ShardedOptions{
		Shards:        r.shards,
		SegmentChunks: r.segmentChunks,
		OnProgress: func(done, total int) {
			r.prog.done.Store(int64(done))
			r.prog.total.Store(int64(total))
		},
	})
	if err != nil {
		return err
	}
	r.prog.done.Store(int64(res.Records))
	r.prog.finished.Store(true)
	elapsed := time.Since(start)
	fmt.Printf("sharded replay: %d records, %d segments across %d shards in %.2fs (%.2fM records/sec)\n",
		res.Records, len(res.Segments), res.Shards, elapsed.Seconds(),
		float64(res.Records)/elapsed.Seconds()/1e6)
	return r.finish(res.Stats, nil, res.Segments)
}

// openSource yields the replay's record stream: a disk image (either
// binary format, sniffed from the header, decoded chunk-by-chunk) or an
// on-the-fly traced benchmark.
func openSource(o options) (trace.RecordSource, error) {
	if o.image != "" {
		return prep.OpenImageStreamConfig(o.image, trace.StreamConfig{DecodeWorkers: o.decodeWorkers})
	}
	img, err := core.Prepare(o.benchmark, o.small)
	if err != nil {
		return nil, err
	}
	return trace.NewImageSource(img), nil
}

// decodeGauges returns a /metrics gauge source for the decode pool's stall
// counters, or nil when the source has no pool (a v1 or materialized image).
func decodeGauges(src trace.RecordSource) func() map[string]float64 {
	if is, ok := src.(*prep.ImageStream); ok {
		src = is.DecodeSource()
	}
	ds, ok := src.(trace.DecodeStatsSource)
	if !ok {
		return nil
	}
	return func() map[string]float64 {
		st := ds.DecodeStats()
		return map[string]float64{
			"kindle_decode_workers":               float64(st.Workers),
			"kindle_decode_chunks":                float64(st.Chunks),
			"kindle_decode_reorder_stalls":        float64(st.ReorderStalls),
			"kindle_decode_reorder_stall_seconds": float64(st.ReorderStallNs) / 1e9,
			"kindle_decode_buffer_stalls":         float64(st.BufferStalls),
			"kindle_decode_buffer_stall_seconds":  float64(st.BufferStallNs) / 1e9,
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kindle:", err)
	os.Exit(1)
}
