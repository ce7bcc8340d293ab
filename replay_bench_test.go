package kindle_test

import (
	"bytes"
	"io"
	"testing"

	"kindle/internal/core"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// BenchmarkReplayThroughput is the headline simulator-speed benchmark: how
// many trace records per second the full access path (TLB → page table →
// caches → memory, with the gemOS kernel ticking) replays on the host. The
// custom records/sec metric is the number to compare across PRs; see
// `make bench`.
func BenchmarkReplayThroughput(b *testing.B) {
	cfg := workloads.DefaultYCSB()
	cfg.Ops = 100_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	records := len(img.Records)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.NewDefault()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// benchShards is the shard count BenchmarkShardedReplayThroughput measures
// at; `make bench` records it in the report so benchdiff can refuse
// cross-shard-count comparisons.
const benchShards = 4

// BenchmarkShardedReplayThroughput replays the same workload through
// core.ReplaySharded at benchShards shards: the chunk index is partitioned
// into fixed segments, each replayed on a cold independent machine. The
// records/sec metric measures aggregate sharded throughput; it is NOT
// comparable to the end-to-end benchmarks above (cold-start physics per
// segment), only to itself across PRs.
func BenchmarkShardedReplayThroughput(b *testing.B) {
	cfg := workloads.DefaultYCSB()
	cfg.Ops = 100_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	records := len(img.Records)
	var buf bytes.Buffer
	// Small chunks so the trace splits into enough segments to keep
	// benchShards workers busy.
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{ChunkRecords: 4096}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.ReplaySharded(func() (io.ReadSeeker, error) {
			return bytes.NewReader(data), nil
		}, core.ShardedOptions{Shards: benchShards})
		if err != nil {
			b.Fatal(err)
		}
		if res.Records != records {
			b.Fatalf("replayed %d records, want %d", res.Records, records)
		}
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}

// BenchmarkStreamReplayThroughput replays the same workload through the
// chunked v2 format: the default decode pool (GOMAXPROCS workers) decodes
// chunk-by-chunk while the simulator replays, holding at most workers+2
// chunks in memory. The records/sec metric is directly comparable to
// BenchmarkReplayThroughput's.
func BenchmarkStreamReplayThroughput(b *testing.B) {
	cfg := workloads.DefaultYCSB()
	cfg.Ops = 100_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	records := len(img.Records)
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{}); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, err := trace.OpenStream(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		f := core.NewDefault()
		_, rep, err := f.LaunchStream(src)
		if err != nil {
			b.Fatal(err)
		}
		if err := rep.Run(); err != nil {
			b.Fatal(err)
		}
		src.Close()
	}
	b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/sec")
}
