package kindle_test

// Zero-allocation guards for the replay fast path and the checkpoint. The
// perf work in the replay engine (pooled TLB entries, recency-ordered cache
// and TLB sets, pooled persist-domain buffers, recycled stream chunk
// buffers and range decoders) and in persistence bookkeeping (a truncated change log, no
// per-page maps) holds only if the steady state stays allocation-free — a
// single escaping value on the per-record path costs more than the
// optimizations save. These tests pin that property in CI (`make
// allocguard`, part of `make check`): they warm the simulator past the
// faulting/buffer-growing phase, then require testing.AllocsPerRun to
// observe zero allocations per run.

import (
	"bytes"
	"io"
	"runtime"
	"runtime/debug"
	"slices"
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
	// A collection may drop the pooled state; none runs while measuring.
	// A cycle whose goroutine has moved to another P since the last Close
	// misses the P-local pool entry and allocates afresh, so the guard
	// takes the median cycle.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	cycle() // warm-up: allocate the decode state
	var per [21]uint64
	var before, after runtime.MemStats
	for i := range per {
		runtime.ReadMemStats(&before)
		cycle()
		runtime.ReadMemStats(&after)
		per[i] = after.TotalAlloc - before.TotalAlloc
	}
	slices.Sort(per[:])
	if median := per[len(per)/2]; median > 4<<10 {
		t.Fatalf("reopening a warm range allocates %d B in the median cycle, want at most 4 KiB", median)
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
