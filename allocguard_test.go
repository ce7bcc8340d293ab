package kindle_test

// Zero-allocation guards for the replay step and the checkpoint. The
// perf work in the replay engine (pooled TLB entries, recency-ordered cache
// and TLB sets, pooled persist-domain buffers, recycled stream chunk
// buffers, read buffers, decode pools and range decoders, and cache and TLB
// storage handed from one sharded segment's machine to the next) and in
// persistence bookkeeping (a truncated change log, no per-page maps) holds
// only if the steady state stays allocation-free — a single escaping value
// on the per-record path costs more than the optimizations save. These
// tests pin that property in CI (`make allocguard`, part of `make check`):
// they warm the simulator past the faulting/buffer-growing phase, then
// require testing.AllocsPerRun to observe zero allocations per run. The
// guards that reopen a decoder (TestStreamReopenZeroAlloc,
// TestRangeReopenZeroAlloc) instead bound the bytes of every warm cycle
// below any chunk-sized buffer, TestShardedReplayZeroAlloc bounds a warm
// sharded replay's bytes per segment (112 KiB) below one machine's cache
// and TLB storage, and TestBootZeroAlloc bounds a warm machine boot's
// allocations (150), most of them the stats registry's.

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"testing"
	"time"

	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/pt"
	"kindle/internal/sim"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// TestReplayStepZeroAlloc: once the working set is faulted in, stepping the
// materialized replay (TLB → page table → caches → memory, kernel ticking)
// must not allocate. YCSB mostly hits the L1 TLB; a third of PageRank's
// accesses miss it and promote an STLB entry.
func TestReplayStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	ycsb := workloads.DefaultYCSB()
	ycsb.Ops = 100_000
	pr := workloads.DefaultPageRank()
	pr.Ops = 200_000
	for _, c := range []struct {
		name   string
		image  func() (*trace.Image, error)
		warmup int
		// minPromoted is the least share of the measured records that
		// must promote an STLB entry, so the guard covers that path.
		minPromoted float64
	}{
		{"ycsb", func() (*trace.Image, error) { return workloads.YCSB(ycsb) }, 20_000, 0},
		{"pagerank", func() (*trace.Image, error) { return workloads.PageRank(pr) }, 150_000, 0.2},
	} {
		t.Run(c.name, func(t *testing.T) {
			img, err := c.image()
			if err != nil {
				t.Fatal(err)
			}
			f := core.NewDefault()
			_, rep, err := f.LaunchInit(img)
			if err != nil {
				t.Fatal(err)
			}
			// Warm-up: fault in the working set, grow the persist-domain
			// buffer pool and the allocator map to their high-water marks.
			if _, err := rep.Step(c.warmup); err != nil {
				t.Fatal(err)
			}
			promoted := f.M.Stats.Get("tlb.l2.hit")
			runs := 0
			avg := testing.AllocsPerRun(200, func() {
				if _, err := rep.Step(64); err != nil {
					t.Fatal(err)
				}
				runs++
			})
			if avg != 0 {
				t.Fatalf("steady-state replay step allocates %.1f times per 64 records, want 0", avg)
			}
			promoted = f.M.Stats.Get("tlb.l2.hit") - promoted
			if share := float64(promoted) / float64(runs*64); share < c.minPromoted {
				t.Fatalf("%.0f%% of the measured records promoted an STLB entry, want at least %.0f%%",
					100*share, 100*c.minPromoted)
			}
		})
	}
}

// TestStreamNextZeroAlloc: after the decode buffers reach chunk size, the
// v2 streamed source at one decode worker (reader framing, DEFLATE
// inflate, varint decode) must not allocate per batch. The worker count is
// pinned so the guard tests the same pool on every host.
func TestStreamNextZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		chunkRecs = 1024
		nChunks   = 128
	)
	img := &trace.Image{
		Benchmark: "allocguard",
		Areas:     []trace.Area{{Name: "heap0", Size: 1 << 20, Write: true}},
	}
	for i := 0; i < chunkRecs*nChunks; i++ {
		img.Records = append(img.Records, trace.Record{
			Period: uint64(i),
			Offset: uint64(i*61) % ((1 << 20) - 8),
			Op:     trace.Op(i & 1),
			Size:   8,
		})
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: chunkRecs}); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenStreamConfig(bytes.NewReader(buf.Bytes()), trace.StreamConfig{DecodeWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Warm-up: the first batches grow every slot's disk/record buffers and
	// the worker's raw buffer; the chunks that follow reuse them.
	for i := 0; i < 8; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(100, func() {
		batch, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != chunkRecs {
			t.Fatalf("batch of %d records, want %d", len(batch), chunkRecs)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state stream decode allocates %.1f times per chunk, want 0", avg)
	}
}

// TestStreamNextZeroAllocPipelined: the same guard for a four-worker
// pool. AllocsPerRun counts mallocs across ALL goroutines, so this pins the
// whole pool — reader framing, every worker's inflate+decode, Next's
// in-order slot hand-off — to recycled buffers once the ring is warm.
func TestStreamNextZeroAllocPipelined(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const (
		chunkRecs = 1024
		nChunks   = 128
	)
	img := &trace.Image{
		Benchmark: "allocguard",
		Areas:     []trace.Area{{Name: "heap0", Size: 1 << 20, Write: true}},
	}
	for i := 0; i < chunkRecs*nChunks; i++ {
		img.Records = append(img.Records, trace.Record{
			Period: uint64(i),
			Offset: uint64(i*61) % ((1 << 20) - 8),
			Op:     trace.Op(i & 1),
			Size:   8,
		})
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: chunkRecs}); err != nil {
		t.Fatal(err)
	}
	src, err := trace.OpenStreamConfig(bytes.NewReader(buf.Bytes()), trace.StreamConfig{DecodeWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	// Warm-up: let every slot's disk and record buffer cycle through the
	// pipeline and grow to chunk size.
	for i := 0; i < 16; i++ {
		if _, err := src.Next(); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(50, func() {
		batch, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		if len(batch) != chunkRecs {
			t.Fatalf("batch of %d records, want %d", len(batch), chunkRecs)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state pipelined decode allocates %.1f times per chunk, want 0", avg)
	}
}

// TestRangeReopenZeroAlloc: a range source hands its decode state — the
// buffered reader, the disk, raw and record buffers and the inflater's
// tables — to the next range opened, so a sharded-replay worker allocates
// it once, not once per segment. After one warm OpenRange/drain/Close
// cycle, each further cycle over the same four chunks may allocate only
// the source itself. The image is the small PageRank trace in 4,096-record
// chunks (its v2 bytes are pinned by TestGeneratorGolden): every chunk's
// dynamic block carries literal/length codes of 12 to 14 bits and distance
// codes of 9 or 10, so both second-level tables are built and used.
func TestRangeReopenZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const chunkRecs = 4096
	img, err := workloads.PageRank(workloads.SmallPageRank())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: chunkRecs}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	ix, err := trace.ScanChunkIndex(rd)
	if err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		src, err := ix.OpenRange(rd, 2, 6)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			batch, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if n != 4*chunkRecs {
			t.Fatalf("range decoded %d records, want %d", n, 4*chunkRecs)
		}
	}
	cycle() // warm-up: allocate the decode state
	worst := worstCycleAlloc(21, cycle)
	t.Logf("worst warm cycle: %d B", worst)
	if worst > 4<<10 {
		t.Fatalf("reopening a warm range allocates up to %d B in one cycle, want at most 4 KiB", worst)
	}
}

// worstCycleAlloc runs cycle n times and returns the most bytes any one
// run allocated, on every goroutine. No collection runs meanwhile, so the
// numbers are the runs' own. The count includes what the runtime
// allocates for itself, and starting an OS thread costs about 5 KiB (its
// m, g0, signal and profiling stacks): ReadMemStats restarts the world,
// which may start one. So a run during which the process gained a thread
// is run again, up to threadRetries times, and the last run counts even
// if it too started a thread, so a cycle that always starts one is still
// judged.
func worstCycleAlloc(n int, cycle func()) uint64 {
	const threadRetries = 3
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	threads := pprof.Lookup("threadcreate")
	var worst uint64
	var before, after runtime.MemStats
	for i := 0; i < n; i++ {
		for try := 0; ; try++ {
			started := threads.Count()
			runtime.ReadMemStats(&before)
			cycle()
			runtime.ReadMemStats(&after)
			if threads.Count() == started || try == threadRetries {
				break
			}
		}
		worst = max(worst, after.TotalAlloc-before.TotalAlloc)
	}
	return worst
}

// TestStreamReopenZeroAlloc: a closed stream hands its buffered reader and
// its decode pool's buffers — every slot's disk and record buffer, every
// worker's inflater and raw buffer — to the next stream opened, so a
// process that replays image after image allocates them once. After warm
// OpenStreamConfig/drain/Close cycles at two workers over a
// 300,000-record PageRank image in default chunks, every further cycle may
// allocate only the stream's own small state: 8 KiB, where a pool built
// afresh allocates megabytes and a new read buffer alone is 64 KiB.
func TestStreamReopenZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := workloads.SmallPageRank()
	cfg.Ops = 300_000
	img, err := workloads.PageRank(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	cycle := func() {
		src, err := trace.OpenStreamConfig(bytes.NewReader(buf.Bytes()), trace.StreamConfig{DecodeWorkers: 2})
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			batch, err := src.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			n += len(batch)
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if n != len(img.Records) {
			t.Fatalf("stream decoded %d records, want %d", n, len(img.Records))
		}
	}
	// Warm-up: allocate the reader and the decode pool's buffers. Each
	// cycle also starts three goroutines, and the runtime allocates a new
	// goroutine (448 B, plus a larger table of all goroutines now and
	// then) until enough dead ones sit where new ones are started; a few
	// more cycles let that settle before any is judged.
	for i := 0; i < 5; i++ {
		cycle()
	}
	worst := worstCycleAlloc(21, cycle)
	t.Logf("worst warm cycle: %d B", worst)
	if worst > 8<<10 {
		t.Fatalf("reopening a warm stream allocates up to %d B in one cycle, want at most 8 KiB", worst)
	}
}

// TestShardedReplayZeroAlloc: every sharded segment boots its own Table I
// machine, and a finished segment hands its cache tag stores and TLB
// storage to the next one booted, so a warm sharded replay allocates a
// segment's machine storage once per shard, not once per segment. Over 25
// one-chunk segments of the small PageRank image on two shards, the second
// ReplaySharded call may allocate 112 KiB per segment for what a segment
// keeps or cannot share: its stats registry, kernel, page tables and frame
// store. A machine built afresh allocates about 505 KB, and a registry
// that rebuilt its name index at every registration took the segment
// above 120 KB. Both shards' storage must come back at any GOMAXPROCS:
// at one P, spare lists that kept one spare per P dropped the second
// shard's machine storage and range state at the end of every call
// (about 875 KB a call, 128 KB per segment).
func TestShardedReplayZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const chunkRecs = 8192
	img, err := workloads.PageRank(workloads.SmallPageRank())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: chunkRecs}); err != nil {
		t.Fatal(err)
	}
	open := func() (io.ReadSeeker, error) { return bytes.NewReader(buf.Bytes()), nil }
	opt := core.ShardedOptions{Shards: 2, SegmentChunks: 1}
	var segs int
	cycle := func() {
		res, err := core.ReplaySharded(open, opt)
		if err != nil {
			t.Fatal(err)
		}
		if res.Records != len(img.Records) {
			t.Fatalf("sharded replay covered %d records, want %d", res.Records, len(img.Records))
		}
		segs = len(res.Segments)
	}
	// A call makes storage for a second segment only when its two workers
	// overlap, which at one P depends on where the scheduler preempts
	// them, so one warm-up call may leave storage for a single segment.
	// Hold one machine and one chunk range per shard at once and release
	// them, so that storage for every shard exists before the warm-up.
	ix, err := trace.ScanChunkIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	release := make([]func(), opt.Shards)
	for i := range release {
		src, err := ix.OpenRange(bytes.NewReader(buf.Bytes()), 0, 1)
		if err != nil {
			t.Fatal(err)
		}
		f := core.NewDefault()
		release[i] = func() { f.M.Release(); src.Close() }
	}
	for _, r := range release {
		r()
	}
	cycle() // warm-up: allocate what a segment keeps and the range decoders
	if segs < 20 {
		t.Fatalf("the image splits into %d segments, want at least 20", segs)
	}
	per := worstCycleAlloc(1, cycle) / uint64(segs)
	t.Logf("warm sharded replay: %d B per segment over %d segments", per, segs)
	if per > 112<<10 {
		t.Fatalf("a warm sharded replay allocates %d B per segment over %d segments, want at most 112 KiB", per, segs)
	}
}

// TestBootZeroAlloc: booting a Table I machine on the cache and TLB
// storage a released one left behind costs the components' own small
// state and the stats registry, which files each of its 55 stats at its
// place in name order. After one warm boot, a boot and release may
// average at most 150 allocations; a registry that rebuilt and re-sorted
// its whole name index at every registration made it over 450.
func TestBootZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	boot := func() { core.NewDefault().M.Release() }
	boot() // warm-up: leave a released machine's storage behind
	avg := testing.AllocsPerRun(20, boot)
	t.Logf("warm boot: %.0f allocations", avg)
	if avg > 150 {
		t.Fatalf("a warm boot and release allocates %.0f times, want at most 150", avg)
	}
}

// TestPersistCommitCycleZeroAlloc: the NVM pending store's steady state —
// a checkpoint-sized bulk write of whole lines, a partial-line write, then
// a range commit of both — must recycle its frame records rather than
// allocate, so every checkpoint's v2p rewrite is allocation-free.
func TestPersistCommitCycleZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	layout := mem.DefaultLayout()
	c := mem.NewController(layout, mem.DDR4_2400(), mem.PCM(), sim.NewClock(), sim.NewStats())
	base := layout.NVMBase + 8*mem.MiB
	bulk := make([]byte, 512*mem.KiB) // a 32,768-entry v2p list
	for i := range bulk {
		bulk[i] = byte(i)
	}
	tail := base + mem.PhysAddr(len(bulk)) + 8
	cycle := func() {
		c.Write(base, bulk)
		c.WriteU64(tail, 42)
		if n := c.Domain().CommitRange(base, uint64(len(bulk))+16); n != len(bulk)/mem.LineSize+1 {
			t.Fatalf("CommitRange committed %d lines, want %d", n, len(bulk)/mem.LineSize+1)
		}
	}
	cycle() // warm-up: allocate the directory slab and the frame records
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("steady-state write→CommitRange cycle allocates %.1f times, want 0", avg)
	}
}

// TestCheckpointZeroAlloc: a rebuild-scheme checkpoint of a warm process
// with 4,096 mapped NVM pages must not allocate, with no mapping changes
// since the last one and after 1,024 remappings of resident pages. The
// change log is truncated, not rebuilt, at each checkpoint, and applying
// it sorts in place.
func TestCheckpointZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const pages = 4096
	m := machine.New(machine.DefaultConfig())
	k := gemos.Boot(m)
	mgr, err := persist.Attach(k, persist.Rebuild, sim.FromDuration(time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("ckpt")
	if err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	a, err := k.Mmap(p, 0, pages*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < pages; i++ {
		if _, err := m.Core.Access(a+i*mem.PageSize, true, 8); err != nil {
			t.Fatal(err)
		}
	}
	type mapping struct{ vpn, pfn uint64 }
	var resident []mapping
	p.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
		if e.NVM() && len(resident) < 1024 {
			resident = append(resident, mapping{va / mem.PageSize, e.PFN()})
		}
		return true
	})
	if len(resident) != 1024 {
		t.Fatalf("%d resident NVM pages, want 1024", len(resident))
	}
	remap := func() {
		// Walk the pages backwards so the change log needs sorting.
		for i := len(resident) - 1; i >= 0; i-- {
			mgr.LogMapping(p, resident[i].vpn, resident[i].pfn, true)
		}
		mgr.Checkpoint()
	}
	remap() // warm-up: grow the change log and the encoding buffer
	mgr.Checkpoint()
	for _, c := range []struct {
		name string
		run  func()
	}{{"unchanged", mgr.Checkpoint}, {"remapped", remap}} {
		if avg := testing.AllocsPerRun(10, c.run); avg != 0 {
			t.Errorf("%s: checkpoint allocates %.1f times, want 0", c.name, avg)
		}
	}
	if _, n, _ := mgr.SlotOf(p); n != pages {
		t.Fatalf("slot mirrors %d mappings, want %d", n, pages)
	}
}
