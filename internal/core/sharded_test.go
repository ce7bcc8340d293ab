package core

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kindle/internal/machine"
	"kindle/internal/trace"
)

// shardedImageFile encodes img as a v2 file with small chunks so even the
// test trace splits into plenty of segments.
func shardedImageFile(t *testing.T, img *trace.Image, chunkRecords int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.kt2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeV2(f, img, trace.StreamOptions{ChunkRecords: chunkRecords}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestShardedStatsIdentity pins the tentpole determinism claim: N-shard
// merged stats dumps are byte-identical to the 1-shard run, with the fast
// paths both on and off. The shard count must select concurrency only —
// never results.
func TestShardedStatsIdentity(t *testing.T) {
	path := shardedImageFile(t, smallImage(t), 1024)
	for _, disable := range []bool{false, true} {
		name := "fastpaths"
		if disable {
			name = "slowpaths"
		}
		t.Run(name, func(t *testing.T) {
			cfg := machine.TestConfig()
			cfg.DisableFastPaths = disable
			opt := ShardedOptions{SegmentChunks: 3, Config: &cfg}

			opt.Shards = 1
			base, err := ReplayShardedFile(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			baseDump := base.Stats.Dump("")
			if baseDump == "" {
				t.Fatal("1-shard run produced an empty stats dump")
			}
			var baseFile bytes.Buffer
			if err := base.Stats.WriteStatsFile(&baseFile); err != nil {
				t.Fatal(err)
			}

			for _, shards := range []int{2, 4} {
				opt.Shards = shards
				got, err := ReplayShardedFile(path, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Records != base.Records {
					t.Fatalf("%d shards replayed %d records, 1 shard %d", shards, got.Records, base.Records)
				}
				if dump := got.Stats.Dump(""); dump != baseDump {
					t.Fatalf("%d-shard merged dump diverged from 1-shard", shards)
				}
				var gotFile bytes.Buffer
				if err := got.Stats.WriteStatsFile(&gotFile); err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(gotFile.Bytes(), baseFile.Bytes()) {
					t.Fatalf("%d-shard stats file diverged from 1-shard", shards)
				}
				// Per-segment registries must be N-independent too.
				if len(got.Segments) != len(base.Segments) {
					t.Fatalf("%d shards produced %d segments, 1 shard %d", shards, len(got.Segments), len(base.Segments))
				}
				for i := range got.Segments {
					if got.Segments[i].Stats.Dump("") != base.Segments[i].Stats.Dump("") {
						t.Fatalf("%d shards: segment %d stats diverged", shards, i)
					}
				}
			}
		})
	}
}

// TestShardedDegenerateInputs pins the zero-record and
// fewer-chunks-than-grain regressions: both must produce the same
// (non-empty) dump as a 1-shard run, not an empty or partial stats file.
// A v2 trace with no records has no chunks at all, so the partition used
// to come out empty and the merged result carried a bare sim.NewStats()
// with none of the boot-time registry a real machine dumps.
func TestShardedDegenerateInputs(t *testing.T) {
	full := smallImage(t)
	empty := &trace.Image{Benchmark: full.Benchmark, Areas: full.Areas}
	tiny := &trace.Image{Benchmark: full.Benchmark, Areas: full.Areas,
		Records: full.Records[:100]}

	cases := []struct {
		name         string
		img          *trace.Image
		chunkRecords int
	}{
		// Zero records: zero chunks, the partition must still boot one
		// machine per the `-shards 1` contract.
		{"zero-records", empty, 1024},
		// 100 records in one 1024-record chunk with an 8-chunk grain:
		// a single segment smaller than the grain.
		{"fewer-chunks-than-grain", tiny, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := shardedImageFile(t, tc.img, tc.chunkRecords)
			cfg := machine.TestConfig()
			opt := ShardedOptions{Shards: 1, SegmentChunks: 8, Config: &cfg}
			base, err := ReplayShardedFile(path, opt)
			if err != nil {
				t.Fatal(err)
			}
			if base.Records != len(tc.img.Records) {
				t.Fatalf("1 shard replayed %d records, trace holds %d", base.Records, len(tc.img.Records))
			}
			baseDump := base.Stats.Dump("")
			if baseDump == "" {
				t.Fatal("1-shard run produced an empty stats dump")
			}
			// The dump must carry a booted machine's registry, not a bare
			// merged-stats shell.
			if !strings.Contains(baseDump, "nvm.write") {
				t.Fatal("1-shard dump is missing boot-time registry stats")
			}
			if len(base.Segments) != 1 {
				t.Fatalf("1 shard produced %d segments, want 1", len(base.Segments))
			}
			for _, shards := range []int{2, 4} {
				opt.Shards = shards
				got, err := ReplayShardedFile(path, opt)
				if err != nil {
					t.Fatal(err)
				}
				if got.Records != base.Records {
					t.Fatalf("%d shards replayed %d records, 1 shard %d", shards, got.Records, base.Records)
				}
				if dump := got.Stats.Dump(""); dump != baseDump {
					t.Fatalf("%d-shard dump diverged from 1-shard on %s input", shards, tc.name)
				}
			}
		})
	}
}

// TestShardedSegmentation checks the partition covers the trace exactly
// once at the configured grain.
func TestShardedSegmentation(t *testing.T) {
	img := smallImage(t)
	path := shardedImageFile(t, img, 1024)
	cfg := machine.TestConfig()
	res, err := ReplayShardedFile(path, ShardedOptions{Shards: 2, SegmentChunks: 4, Config: &cfg})
	if err != nil {
		t.Fatal(err)
	}
	if res.Records != len(img.Records) {
		t.Fatalf("replayed %d records, trace holds %d", res.Records, len(img.Records))
	}
	nChunks := (len(img.Records) + 1023) / 1024
	wantSegs := (nChunks + 3) / 4
	if len(res.Segments) != wantSegs {
		t.Fatalf("%d segments, want %d", len(res.Segments), wantSegs)
	}
	next := 0
	total := 0
	for i, seg := range res.Segments {
		if seg.Lo != next {
			t.Fatalf("segment %d starts at chunk %d, want %d", i, seg.Lo, next)
		}
		if seg.Hi <= seg.Lo {
			t.Fatalf("segment %d empty range [%d, %d)", i, seg.Lo, seg.Hi)
		}
		next = seg.Hi
		total += seg.Records
	}
	if next != nChunks {
		t.Fatalf("segments cover %d chunks, trace holds %d", next, nChunks)
	}
	if total != res.Records {
		t.Fatalf("segment records sum to %d, result says %d", total, res.Records)
	}
}

// TestShardedProgress checks OnProgress reports monotonically to the exact
// total.
func TestShardedProgress(t *testing.T) {
	path := shardedImageFile(t, smallImage(t), 1024)
	cfg := machine.TestConfig()
	var mu = make(chan struct{}, 1)
	maxDone, calls, lastTotal := 0, 0, 0
	_, err := ReplayShardedFile(path, ShardedOptions{
		Shards: 2, SegmentChunks: 2, Config: &cfg,
		OnProgress: func(done, total int) {
			mu <- struct{}{}
			if done > maxDone {
				maxDone = done
			}
			calls++
			lastTotal = total
			<-mu
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls == 0 {
		t.Fatal("OnProgress never called")
	}
	if maxDone != 20_000 || lastTotal != 20_000 {
		t.Fatalf("progress peaked at %d/%d, want 20000/20000", maxDone, lastTotal)
	}
}

// TestShardedRejectsCorruptTrace checks scan-time and replay-time failures
// surface as errors, not hangs or partial results.
func TestShardedRejectsCorruptTrace(t *testing.T) {
	path := shardedImageFile(t, smallImage(t), 1024)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.kt2")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	cfg := machine.TestConfig()
	if _, err := ReplayShardedFile(torn, ShardedOptions{Shards: 2, Config: &cfg}); err == nil {
		t.Fatal("sharded replay of a torn trace succeeded")
	}
	if _, err := ReplayShardedFile(filepath.Join(t.TempDir(), "missing.kt2"), ShardedOptions{Config: &cfg}); err == nil {
		t.Fatal("sharded replay of a missing file succeeded")
	}
}
