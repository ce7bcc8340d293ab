package kindle_test

// Zero-allocation guards for the replay fast path. The perf work in the
// replay engine (translation cache, MRU probes, flat cache/TLB backing,
// pooled persist-domain buffers, recycled stream chunk buffers) holds only
// if the steady state stays allocation-free — a single escaping value on
// the per-record path costs more than the optimizations save. These tests
// pin that property in CI (`make allocguard`, part of `make check`): they
// warm the simulator past the faulting/buffer-growing phase, then require
// testing.AllocsPerRun to observe zero allocations per run.

import (
	"bytes"
	"testing"

	"kindle/internal/core"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// TestReplayStepZeroAlloc: once the working set is faulted in, stepping the
// materialized replay (TLB → page table → caches → memory, kernel ticking)
// must not allocate.
func TestReplayStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	cfg := workloads.DefaultYCSB()
	cfg.Ops = 100_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := core.NewDefault()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: fault in the working set, grow the persist-domain buffer
	// pool and the allocator map to their high-water marks.
	if _, err := rep.Step(20_000); err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(200, func() {
		if _, err := rep.Step(64); err != nil {
			t.Fatal(err)
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state replay step allocates %.1f times per 64 records, want 0", avg)
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
