// Command kindle runs one full-system simulation: it loads a disk image
// produced by kindle-prep (or traces a benchmark on the fly), boots the
// machine + gemOS, optionally enables process persistence, SSP or HSCC,
// replays the application, and reports execution statistics. With
// -crash-at it also demonstrates full process persistence: the machine
// power-fails mid-run, reboots, recovers the process from NVM and finishes
// the remaining trace.
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
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"kindle/internal/core"
	"kindle/internal/hscc"
	"kindle/internal/machine"
	"kindle/internal/obs"
	"kindle/internal/obs/monitor"
	"kindle/internal/persist"
	"kindle/internal/prep"
	"kindle/internal/sim"
	"kindle/internal/ssp"
	"kindle/internal/trace"
)

func main() {
	image := flag.String("image", "", "disk image to replay (from kindle-prep)")
	benchmark := flag.String("benchmark", "", "trace a benchmark on the fly instead of -image")
	small := flag.Bool("small", false, "reduced workload configuration")
	persistMode := flag.String("persist", "", "process persistence scheme: rebuild or persistent")
	interval := flag.Duration("interval", 10*time.Millisecond, "checkpoint interval")
	crashAt := flag.Float64("crash-at", 0, "crash after this fraction of the trace (0 = no crash)")
	sspInterval := flag.Duration("ssp", 0, "enable SSP with this consistency interval")
	hsccThreshold := flag.Uint("hscc", 0, "enable HSCC with this fetch threshold")
	stats := flag.Bool("stats", false, "dump simulator statistics")
	statsOut := flag.String("stats-out", "", "write gem5-format stats file here")
	traceOut := flag.String("trace-out", "", "write Chrome trace-event JSON here (open in chrome://tracing)")
	traceCats := flag.String("trace-categories", "all", "comma-separated trace categories: mem,cache,tlb,ptwalk,checkpoint,recovery,syscall or all")
	statsInterval := flag.Duration("stats-interval", 0, "dump gem5 interval stat blocks every simulated duration (0 = off)")
	monitorAddr := flag.String("monitor", "", "serve live telemetry on this HTTP address (e.g. :8090): /metrics, /events, /progress, /debug/pprof/")
	monitorHold := flag.Duration("monitor-hold", 0, "keep the monitor endpoint serving this long after the run completes")
	decodeWorkers := flag.Int("decode-workers", 0, "v2 chunk-decode worker pool size (0 = GOMAXPROCS; 1 still overlaps decode with replay)")
	idleAfter := flag.Duration("idle-after", 0, "keep the machine idling this much simulated time after the replay; checkpoint and other timers keep firing")
	idleTick := flag.Duration("idle-tick", 10*time.Microsecond, "boundary grain for -idle-after idling: an event fires at the first boundary at or after its deadline (0 = one step to the end)")
	shards := flag.Int("shards", 0, "replay the trace sharded across N machine instances (0 = off); requires a v2 -image")
	segmentChunks := flag.Int("segment-chunks", 0, "sharded partition grain in chunks (0 = default); affects results, unlike -shards")
	shardStatsDir := flag.String("shard-stats-dir", "", "with -shards, also write each segment's stats file into this directory")
	snapshotOut := flag.String("snapshot-out", "", "freeze the machine into this file mid-replay (copy-on-write; the run still completes normally)")
	snapshotAt := flag.Int("snapshot-at", 0, "with -snapshot-out, take the snapshot after this many records (rounded up to a tick boundary; 0 = right after launch)")
	snapshotIn := flag.String("snapshot-in", "", "resume a run frozen by -snapshot-out; requires -image pointing at the same trace")
	trafficSpec := flag.String("traffic", "", "run the multi-tenant traffic engine with this spec (\"default\" or key=value;... — see internal/traffic.ParseSpec)")
	tenants := flag.Int("tenants", 0, "with -traffic, override the spec's tenant count")
	seed := flag.Uint64("seed", 0, "with -traffic, override the spec's RNG seed")
	flag.Parse()

	if *idleAfter < 0 {
		fatal(fmt.Errorf("-idle-after must not be negative, got %s", *idleAfter))
	}
	if *idleTick < 0 {
		fatal(fmt.Errorf("-idle-tick must not be negative, got %s", *idleTick))
	}
	if *snapshotOut != "" || *snapshotIn != "" {
		// Snapshots capture the machine + kernel + persistence manager +
		// replay position. Stacks whose pending events cannot be re-armed by
		// name (SSP, HSCC, interval dumps, scheduler ticks) and modes that
		// fork their own machines are refused up front, instead of failing
		// at resume time.
		switch {
		case *trafficSpec != "" || *shards > 0:
			fatal(fmt.Errorf("-snapshot-out/-snapshot-in are incompatible with -traffic/-shards (snapshots capture one replaying machine)"))
		case *sspInterval > 0 || *hsccThreshold > 0:
			fatal(fmt.Errorf("-snapshot-out/-snapshot-in are incompatible with -ssp/-hscc (their pending events cannot be re-armed on resume)"))
		case *crashAt > 0:
			fatal(fmt.Errorf("-snapshot-out/-snapshot-in are incompatible with -crash-at"))
		case *traceOut != "" || *statsInterval > 0:
			fatal(fmt.Errorf("-snapshot-out/-snapshot-in are incompatible with -trace-out/-stats-interval"))
		case *idleAfter > 0:
			fatal(fmt.Errorf("-snapshot-out/-snapshot-in are incompatible with -idle-after"))
		}
	}
	if *snapshotIn != "" {
		// The snapshot pins the persistence scheme; the flag that would
		// re-choose it is refused rather than silently ignored.
		if *persistMode != "" {
			fatal(fmt.Errorf("-snapshot-in restores the persistence state captured in the snapshot; drop -persist"))
		}
		if *snapshotOut != "" {
			fatal(fmt.Errorf("-snapshot-in and -snapshot-out are mutually exclusive"))
		}
		runFromSnapshot(snapshotFlags{
			snapshotIn:    *snapshotIn,
			image:         *image,
			decodeWorkers: *decodeWorkers,
			stats:         *stats,
			statsOut:      *statsOut,
			monitorAddr:   *monitorAddr,
			monitorHold:   *monitorHold,
		})
		return
	}

	if *trafficSpec != "" {
		// The traffic engine generates its own load on one machine; replay
		// inputs, sharding and the replay-attached prototypes don't apply.
		switch {
		case *image != "" || *benchmark != "":
			fatal(fmt.Errorf("-traffic generates synthetic load; it is incompatible with -image/-benchmark"))
		case *shards > 0:
			fatal(fmt.Errorf("-traffic is incompatible with -shards (one machine, many tenants)"))
		case *sspInterval > 0 || *hsccThreshold > 0:
			fatal(fmt.Errorf("-traffic is incompatible with -ssp/-hscc (prototypes attach to a replayed process)"))
		case *crashAt > 0:
			fatal(fmt.Errorf("-traffic is incompatible with -crash-at (crash points are trace fractions)"))
		case *traceOut != "" || *statsInterval > 0:
			fatal(fmt.Errorf("-traffic is incompatible with -trace-out/-stats-interval"))
		case *idleAfter > 0:
			fatal(fmt.Errorf("-traffic is incompatible with -idle-after (the engine idles between arrivals itself)"))
		}
		seedSet := false
		flag.Visit(func(fl *flag.Flag) {
			if fl.Name == "seed" {
				seedSet = true
			}
		})
		runTraffic(trafficFlags{
			spec:        *trafficSpec,
			tenants:     *tenants,
			seed:        *seed,
			seedSet:     seedSet,
			small:       *small,
			persistMode: *persistMode,
			interval:    *interval,
			stats:       *stats,
			statsOut:    *statsOut,
			monitorAddr: *monitorAddr,
			monitorHold: *monitorHold,
		})
		return
	}

	if *shards > 0 {
		// Sharded mode runs N independent machines; the single-machine
		// features cannot meaningfully span them.
		switch {
		case *benchmark != "":
			fatal(fmt.Errorf("-shards replays an on-disk v2 image; use -image, not -benchmark"))
		case *persistMode != "" || *crashAt > 0:
			fatal(fmt.Errorf("-shards is incompatible with -persist/-crash-at (persistence is per-machine)"))
		case *sspInterval > 0 || *hsccThreshold > 0:
			fatal(fmt.Errorf("-shards is incompatible with -ssp/-hscc (prototypes attach to one machine)"))
		case *traceOut != "" || *statsInterval > 0:
			fatal(fmt.Errorf("-shards is incompatible with -trace-out/-stats-interval"))
		case *idleAfter > 0:
			fatal(fmt.Errorf("-shards is incompatible with -idle-after (idling is per-machine)"))
		}
		runSharded(shardedFlags{
			image:       *image,
			shards:      *shards,
			segChunks:   *segmentChunks,
			statsDir:    *shardStatsDir,
			stats:       *stats,
			statsOut:    *statsOut,
			monitorAddr: *monitorAddr,
			monitorHold: *monitorHold,
		})
		return
	}

	src, err := openSource(*image, *benchmark, *small, *decodeWorkers)
	if err != nil {
		fatal(err)
	}
	defer src.Close()

	cfg := machine.DefaultConfig()
	if *traceOut != "" {
		mask, err := obs.ParseCategories(*traceCats)
		if err != nil {
			fatal(err)
		}
		if mask == 0 {
			fatal(fmt.Errorf("-trace-out set but -trace-categories selects nothing"))
		}
		cfg.Trace = obs.Config{Categories: mask}
	}
	f := core.New(cfg)

	// Live monitor: an optional HTTP endpoint over the running simulation.
	// With -monitor unset nothing below runs — no hub, no goroutines, no
	// hot-path cost.
	var hub *monitor.Hub
	var mon *monitor.Server
	var progConsumed, progTotal atomic.Int64
	var progDone atomic.Bool
	if *monitorAddr != "" {
		hub = monitor.NewHub()
		f.M.Tracer.SetSink(hub)
		progTotal.Store(-1)
		mon, err = monitor.Listen(*monitorAddr, monitor.Options{
			Stats:  f.M.Stats,
			Hub:    hub,
			Gauges: mergeGauges(decodeGauges(src), memGauges(f.M)),
			Progress: func() any {
				p := replayProgress{
					RecordsReplayed: progConsumed.Load(),
					RecordsTotal:    progTotal.Load(),
					Done:            progDone.Load(),
				}
				switch {
				case p.Done:
					p.Fraction = 1
				case p.RecordsTotal > 0:
					p.Fraction = float64(p.RecordsReplayed) / float64(p.RecordsTotal)
				}
				return p
			},
		})
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		fmt.Fprintf(os.Stderr, "monitor: listening on http://%s\n", mon.Addr())
	}

	// Interval stats: a recurring simulated-time event snapshots counter
	// deltas à la `m5 dumpstats`. Crash drains the event queue, so the
	// post-recovery path re-arms it below.
	var intervalBuf bytes.Buffer
	var armIntervalDump func()
	if *statsInterval > 0 {
		iv := sim.FromDuration(*statsInterval)
		armIntervalDump = func() {
			f.M.Events.Schedule(f.M.Clock.Now()+iv, "stats.interval", func(sim.Cycles) {
				mark := intervalBuf.Len()
				if err := f.M.Stats.DumpInterval(&intervalBuf); err != nil {
					fatal(err)
				}
				if hub != nil {
					// Hand the hub its own copy: intervalBuf keeps growing.
					block := append([]byte(nil), intervalBuf.Bytes()[mark:]...)
					hub.PublishInterval(f.M.Stats.IntervalCount(), block)
				}
				armIntervalDump()
			})
		}
		armIntervalDump()
	}

	var mgr *persist.Manager
	switch *persistMode {
	case "":
	case "rebuild":
		mgr, err = f.EnablePersistence(persist.Rebuild, *interval)
	case "persistent":
		mgr, err = f.EnablePersistence(persist.Persistent, *interval)
	default:
		fatal(fmt.Errorf("unknown persistence scheme %q", *persistMode))
	}
	if err != nil {
		fatal(err)
	}

	p, rep, err := f.LaunchStream(src)
	if err != nil {
		fatal(err)
	}
	if mon != nil {
		progTotal.Store(int64(rep.Total()))
		rep.OnStep = func(consumed, _ int) { progConsumed.Store(int64(consumed)) }
	}

	var sspCtl *ssp.Controller
	if *sspInterval > 0 {
		cfg := ssp.DefaultConfig()
		cfg.ConsistencyInterval = sim.FromDuration(*sspInterval)
		if sspCtl, err = f.EnableSSP(cfg); err != nil {
			fatal(err)
		}
		lo, hi := rep.NVMRange()
		sspCtl.Enable(lo, hi)
	}
	var hsccCtl *hscc.Controller
	if *hsccThreshold > 0 {
		cfg := hscc.DefaultConfig()
		cfg.FetchThreshold = uint32(*hsccThreshold)
		if hsccCtl, err = f.EnableHSCC(p, cfg); err != nil {
			fatal(err)
		}
		hsccCtl.Start()
	}
	if mgr != nil {
		mgr.Start()
	}

	total := rep.Total()
	crashPoint := 0
	if *crashAt > 0 {
		if total < 0 {
			fatal(fmt.Errorf("-crash-at needs the trace length, which this source cannot report"))
		}
		crashPoint = int(float64(total) * *crashAt)
	}
	if total >= 0 {
		fmt.Printf("replaying %s: %d records on %s\n", src.Benchmark(), total, "3GB DRAM + 2GB NVM @ 3GHz")
	} else {
		fmt.Printf("replaying %s (streamed) on %s\n", src.Benchmark(), "3GB DRAM + 2GB NVM @ 3GHz")
	}

	if *snapshotOut != "" {
		// Round the capture point up to a tick boundary: tick firing is
		// consumed-count-based, so a boundary-aligned snapshot resumes on
		// exactly the cold run's event trajectory.
		at := *snapshotAt
		if te := rep.TickEvery; te > 0 && at%te != 0 {
			at += te - at%te
		}
		if at > 0 {
			if _, err := rep.Step(at); err != nil {
				fatal(err)
			}
		}
		writeSnapshot(f, rep, *snapshotOut)
	}

	if crashPoint > 0 && mgr != nil {
		if _, err := rep.Step(crashPoint); err != nil {
			fatal(err)
		}
		mgr.Checkpoint()
		fmt.Printf("-- crash injected at record %d (t=%.3f ms) --\n", crashPoint, f.M.ElapsedMillis())
		f.Crash()
		procs, err := f.Recover(*interval)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("-- recovered %d process(es); resuming --\n", len(procs))
		if len(procs) > 0 {
			if err := rep.Rebind(procs[0]); err != nil {
				fatal(err)
			}
			f.K.Switch(procs[0])
		}
		if mgr = f.Manager(); mgr != nil {
			mgr.Start()
		}
		if armIntervalDump != nil {
			armIntervalDump()
		}
	}
	if err := rep.Run(); err != nil && crashPoint == 0 {
		fatal(err)
	} else if err != nil {
		// After a crash the replay cursor may point into VMAs restored
		// from the checkpoint; surviving NVM areas keep working.
		fmt.Println("note: post-crash replay stopped:", err)
	}

	// Optional idle tail: simulated time keeps passing with no instructions
	// in flight, so checkpoint/migration/scheduler timers keep firing.
	if *idleAfter > 0 {
		f.RunIdle(*idleAfter, *idleTick)
	}

	if mon != nil {
		progConsumed.Store(int64(rep.Consumed()))
		progDone.Store(true)
	}

	if sspCtl != nil {
		sspCtl.Disable()
	}
	if hsccCtl != nil {
		hsccCtl.Stop()
	}

	fmt.Printf("execution time: %.3f ms simulated (%d cycles)\n", f.M.ElapsedMillis(), f.M.Clock.Now())
	fmt.Printf("kernel share:   %.1f%%\n",
		100*float64(f.M.Stats.Get("cpu.kernel_cycles"))/float64(f.M.Clock.Now()))
	if *stats {
		fmt.Print(f.M.Stats.Dump(""))
	}
	// Close the last interval so the per-block deltas sum to the final
	// totals, then emit: the totals block first (ParseStatsFile reads it),
	// interval blocks after (ParseStatsBlocks reads them all).
	if *statsInterval > 0 {
		if err := f.M.Stats.DumpInterval(&intervalBuf); err != nil {
			fatal(err)
		}
	}
	if *statsOut != "" {
		sf, err := os.Create(*statsOut)
		if err != nil {
			fatal(err)
		}
		werr := f.M.Stats.WriteStatsFile(sf)
		if werr == nil && intervalBuf.Len() > 0 {
			_, werr = sf.Write(intervalBuf.Bytes())
		}
		if cerr := sf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("stats written to %s (%d interval blocks)\n", *statsOut, f.M.Stats.IntervalCount())
	} else if intervalBuf.Len() > 0 {
		fmt.Print(intervalBuf.String())
	}
	if *traceOut != "" {
		if d := f.M.Tracer.Dropped(); d > 0 {
			fmt.Fprintf(os.Stderr,
				"kindle: warning: trace ring wrapped: %d events dropped (ring holds %d; the written trace is the most recent window of the run)\n",
				d, f.M.Tracer.Cap())
		}
		tf, err := os.Create(*traceOut)
		if err != nil {
			fatal(err)
		}
		werr := f.M.Tracer.WriteChrome(tf)
		if cerr := tf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("trace written to %s (%d events, %d dropped)\n", *traceOut, f.M.Tracer.Len(), f.M.Tracer.Dropped())
	}
	if mon != nil && *monitorHold > 0 {
		fmt.Fprintf(os.Stderr, "monitor: run complete; holding endpoint for %s\n", *monitorHold)
		time.Sleep(*monitorHold)
	}
}

// replayProgress is the /progress payload of a single kindle run.
type replayProgress struct {
	RecordsReplayed int64   `json:"records_replayed"`
	RecordsTotal    int64   `json:"records_total"` // -1: source cannot tell
	Fraction        float64 `json:"fraction"`
	Done            bool    `json:"done"`
}

// openSource yields the replay's record stream: a disk image (either
// binary format, sniffed from the header, decoded chunk-by-chunk) or an
// on-the-fly traced benchmark.
func openSource(path, benchmark string, small bool, decodeWorkers int) (trace.RecordSource, error) {
	switch {
	case path != "":
		return prep.OpenImageStreamConfig(path, trace.StreamConfig{DecodeWorkers: decodeWorkers})
	case benchmark != "":
		img, err := core.Prepare(benchmark, small)
		if err != nil {
			return nil, err
		}
		return trace.NewImageSource(img), nil
	default:
		return nil, fmt.Errorf("one of -image or -benchmark is required")
	}
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

// shardedFlags carries the flag subset the sharded mode consumes.
type shardedFlags struct {
	image       string
	shards      int
	segChunks   int
	statsDir    string
	stats       bool
	statsOut    string
	monitorAddr string
	monitorHold time.Duration
}

// shardProgress is the /progress payload of a sharded run.
type shardProgress struct {
	RecordsReplayed int64   `json:"records_replayed"`
	RecordsTotal    int64   `json:"records_total"`
	Fraction        float64 `json:"fraction"`
	Shards          int     `json:"shards"`
	Done            bool    `json:"done"`
}

// runSharded replays a v2 image partitioned across independent machine
// instances (core.ReplaySharded) and reports the deterministically merged
// stats. Persistence, crash injection, SSP/HSCC and event tracing apply to
// a single machine and are not available here.
func runSharded(fl shardedFlags) {
	if fl.image == "" {
		fatal(fmt.Errorf("-shards requires -image (a v2 disk image)"))
	}
	var progDone, progTotal atomic.Int64
	var finished atomic.Bool
	var mon *monitor.Server
	if fl.monitorAddr != "" {
		progTotal.Store(-1)
		var err error
		mon, err = monitor.Listen(fl.monitorAddr, monitor.Options{
			Progress: func() any {
				p := shardProgress{
					RecordsReplayed: progDone.Load(),
					RecordsTotal:    progTotal.Load(),
					Shards:          fl.shards,
					Done:            finished.Load(),
				}
				switch {
				case p.Done:
					p.Fraction = 1
				case p.RecordsTotal > 0:
					p.Fraction = float64(p.RecordsReplayed) / float64(p.RecordsTotal)
				}
				return p
			},
			Gauges: func() map[string]float64 {
				done, total := progDone.Load(), progTotal.Load()
				frac := 0.0
				if total > 0 {
					frac = float64(done) / float64(total)
				}
				return map[string]float64{
					"kindle_shard_records_replayed": float64(done),
					"kindle_shard_records_total":    float64(total),
					"kindle_shard_fraction":         frac,
					"kindle_shards":                 float64(fl.shards),
				}
			},
		})
		if err != nil {
			fatal(err)
		}
		defer mon.Close()
		fmt.Fprintf(os.Stderr, "monitor: listening on http://%s\n", mon.Addr())
	}

	start := time.Now()
	cfg := machine.DefaultConfig()
	res, err := core.ReplayShardedFile(fl.image, core.ShardedOptions{
		Shards:        fl.shards,
		SegmentChunks: fl.segChunks,
		Config:        &cfg,
		OnProgress: func(done, total int) {
			progDone.Store(int64(done))
			progTotal.Store(int64(total))
		},
	})
	if err != nil {
		fatal(err)
	}
	finished.Store(true)
	progDone.Store(int64(res.Records))
	elapsed := time.Since(start)
	fmt.Printf("sharded replay: %d records, %d segments across %d shards in %.2fs (%.2fM records/sec)\n",
		res.Records, len(res.Segments), res.Shards, elapsed.Seconds(),
		float64(res.Records)/elapsed.Seconds()/1e6)

	if fl.stats {
		fmt.Print(res.Stats.Dump(""))
	}
	if fl.statsOut != "" {
		sf, err := os.Create(fl.statsOut)
		if err != nil {
			fatal(err)
		}
		werr := res.Stats.WriteStatsFile(sf)
		if cerr := sf.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(werr)
		}
		fmt.Printf("merged stats written to %s\n", fl.statsOut)
	}
	if fl.statsDir != "" {
		if err := os.MkdirAll(fl.statsDir, 0o755); err != nil {
			fatal(err)
		}
		for i, seg := range res.Segments {
			path := filepath.Join(fl.statsDir, fmt.Sprintf("segment-%04d.stats", i))
			sf, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			werr := seg.Stats.WriteStatsFile(sf)
			if cerr := sf.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fatal(werr)
			}
		}
		fmt.Printf("%d segment stats files written to %s\n", len(res.Segments), fl.statsDir)
	}
	if mon != nil && fl.monitorHold > 0 {
		fmt.Fprintf(os.Stderr, "monitor: run complete; holding endpoint for %s\n", fl.monitorHold)
		time.Sleep(fl.monitorHold)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kindle:", err)
	os.Exit(1)
}
