package core

// Sharded replay: partition a v2 trace's chunk index into fixed-size
// segments and replay each on its own independent machine instance, then
// merge the per-segment stats deterministically. The segment grain is a
// property of the trace walk, not of the worker count, so the merged stats
// are byte-identical for every shard count — N shards only decide how many
// segments replay concurrently.
//
// A segment replays on a cold machine: caches, TLBs and page tables start
// empty at every segment boundary, exactly as they would at N=1 with the
// same grain. That is what buys the N-independence; it also means sharded
// totals are not comparable to an unsharded end-to-end replay (which
// carries warm state across the whole trace). Compare sharded runs against
// sharded runs.

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"sync/atomic"

	"kindle/internal/machine"
	"kindle/internal/sim"
	"kindle/internal/trace"
)

// DefaultSegmentChunks is the fixed partition grain of sharded replay:
// chunks per segment. With the v2 writer's default of 64Ki records per
// chunk a segment replays 256Ki records — long enough to amortize the cold
// start, short enough that a 4-way shard of any real trace has work for
// every worker.
const DefaultSegmentChunks = 4

// ShardedOptions tunes ReplaySharded. The zero value replays with
// GOMAXPROCS shards at the default segment grain on the paper's default
// machine.
type ShardedOptions struct {
	// Shards bounds how many segments replay concurrently (0 = GOMAXPROCS).
	// It never affects results, only wall-clock time.
	Shards int
	// SegmentChunks is the partition grain in chunks (0 =
	// DefaultSegmentChunks). Unlike Shards it DOES affect results: segment
	// boundaries are cold-machine boundaries.
	SegmentChunks int
	// Config is the machine configuration each segment's instance boots
	// with (nil = machine.DefaultConfig()).
	Config *machine.Config
	// WarmFork is read by nothing: every segment cold-boots. The field
	// remains only so that code which still assigns it (the perfbench
	// module) keeps compiling.
	//
	// Deprecated: has no effect.
	WarmFork bool
	// OnProgress, when set, observes global progress: records replayed
	// across all segments so far, out of the trace total. Called from
	// worker goroutines; it must be safe for concurrent use (bench.Tracker
	// and the monitor gauges are).
	OnProgress func(done, total int)
}

// SegmentStats is one segment's outcome, the debugging view of a sharded
// run: its chunk range, record count, end-of-segment clock and private
// stats registry.
type SegmentStats struct {
	Lo, Hi  int // chunk range [Lo, Hi) in the trace's chunk index
	Records int
	Cycles  sim.Cycles // segment-local clock at completion
	Stats   *sim.Stats
}

// ShardedResult is a sharded replay's outcome.
type ShardedResult struct {
	// Stats is the deterministic merge of every segment's registry, folded
	// in segment order. Its dump is byte-identical for every shard count.
	Stats *sim.Stats
	// Segments holds the per-segment registries in segment order.
	Segments []SegmentStats
	// Records is the total records replayed; Shards the worker count used.
	Records int
	Shards  int
	// Cycles sums the per-segment clocks — the simulated-time proxy of a
	// sharded run. It depends on the segment grain (cold boundaries) but
	// not on the shard count, so sharded runs compare against sharded runs.
	Cycles sim.Cycles
}

// ReplaySharded replays a v2 trace partitioned across independent machine
// instances. open must return a fresh reader over the same image on every
// call (one per concurrent segment, plus one for the index scan); readers
// that implement io.Closer are closed when their segment finishes.
func ReplaySharded(open func() (io.ReadSeeker, error), opt ShardedOptions) (*ShardedResult, error) {
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	segChunks := opt.SegmentChunks
	if segChunks <= 0 {
		segChunks = DefaultSegmentChunks
	}
	cfg := machine.DefaultConfig()
	if opt.Config != nil {
		cfg = *opt.Config
	}

	rs, err := open()
	if err != nil {
		return nil, fmt.Errorf("core: opening trace for index scan: %w", err)
	}
	ix, err := trace.ScanChunkIndex(rs)
	closeReader(rs)
	if err != nil {
		return nil, fmt.Errorf("core: scanning chunk index: %w", err)
	}

	nSegs := (len(ix.Chunks) + segChunks - 1) / segChunks
	if nSegs == 0 {
		// A v2 trace with zero records has no chunks. Still replay one
		// empty segment so the result carries a booted machine's registry
		// (boot-time page-table and checkpoint-area stats) exactly like
		// `-shards 1` — not an empty stats file.
		nSegs = 1
	}
	res := &ShardedResult{
		Stats:    sim.NewStats(),
		Segments: make([]SegmentStats, nSegs),
		Shards:   shards,
	}
	var done atomic.Int64
	err = ForEachIndexed(shards, nSegs, func(i int) error {
		lo := i * segChunks
		hi := min(lo+segChunks, len(ix.Chunks))
		var report func(delta int)
		if opt.OnProgress != nil {
			report = func(delta int) {
				opt.OnProgress(int(done.Add(int64(delta))), ix.Total)
			}
		}
		st, n, cyc, err := replaySegment(ix, open, lo, hi, cfg, report)
		if err != nil {
			return fmt.Errorf("core: segment %d (chunks [%d, %d)): %w", i, lo, hi, err)
		}
		res.Segments[i] = SegmentStats{Lo: lo, Hi: hi, Records: n, Cycles: cyc, Stats: st}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// The merge folds in segment order. The stats themselves are sums and
	// extrema, so any order would produce the same registry — ordering
	// keeps the determinism obvious rather than argued.
	for _, seg := range res.Segments {
		res.Stats.MergeFrom(seg.Stats)
		res.Records += seg.Records
		res.Cycles += seg.Cycles
	}
	return res, nil
}

// ReplayShardedFile is ReplaySharded over an image file on disk.
func ReplayShardedFile(path string, opt ShardedOptions) (*ShardedResult, error) {
	return ReplaySharded(func() (io.ReadSeeker, error) { return os.Open(path) }, opt)
}

// replaySegment replays chunks [lo, hi) on a cold-booted framework and
// returns its stats registry, record count and final clock.
func replaySegment(ix *trace.ChunkIndex, open func() (io.ReadSeeker, error), lo, hi int, cfg machine.Config, report func(delta int)) (*sim.Stats, int, sim.Cycles, error) {
	rs, err := open()
	if err != nil {
		return nil, 0, 0, fmt.Errorf("opening trace: %w", err)
	}
	defer closeReader(rs)
	src, err := ix.OpenRange(rs, lo, hi)
	if err != nil {
		return nil, 0, 0, err
	}
	defer src.Close()
	f := New(cfg)
	_, rep, err := f.LaunchStream(src)
	if err != nil {
		return nil, 0, 0, err
	}
	// Seed the replay clock with the segment's base period: the first
	// record advances the machine by its in-segment delta, not by its
	// absolute period — every segment starts at local time zero, which is
	// what makes the grain (and not the shard count) define the results.
	if lo < hi {
		rep.lastPeriod = ix.Chunks[lo].BasePeriod
	}
	if report != nil {
		last := 0
		rep.OnStep = func(consumed, total int) {
			if consumed > last {
				report(consumed - last)
				last = consumed
			}
		}
	}
	if err := rep.Run(); err != nil {
		return nil, 0, 0, err
	}
	if err := rep.Teardown(); err != nil {
		return nil, 0, 0, err
	}
	return f.M.Stats, rep.Consumed(), f.M.Clock.Now(), nil
}

func closeReader(rs io.ReadSeeker) {
	if c, ok := rs.(io.Closer); ok {
		c.Close()
	}
}
