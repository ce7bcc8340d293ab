package kindle_test

import (
	"flag"
	"runtime"
	"testing"
	"time"

	"kindle/internal/bench"
)

// benchReportPath enables TestWriteBenchReport: `make bench` passes
// -bench-report BENCH_replay.json to record the machine-readable
// performance snapshot compared across PRs (see bench.Report and
// cmd/kindle-benchdiff).
var benchReportPath = flag.String("bench-report", "", "write the replay/suite benchmark report JSON to this path")

// TestWriteBenchReport measures replay throughput (materialized and
// streamed) and suite wall-clock and writes them as JSON. Skipped unless
// -bench-report is set, so regular `go test` runs don't pay the
// measurement.
func TestWriteBenchReport(t *testing.T) {
	if *benchReportPath == "" {
		t.Skip("enabled by -bench-report <path> (see `make bench`)")
	}
	rep := bench.Report{
		SuiteScale: 1.0 / 16,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// Environment knobs behind the stream/sharded metrics: benchdiff
		// refuses comparisons across differing values without
		// -normalize-env, like gomaxprocs.
		Shards:        benchShards,
		DecodeWorkers: runtime.GOMAXPROCS(0),
	}

	br := testing.Benchmark(BenchmarkReplayThroughput)
	rep.RecordsPerSec = br.Extra["records/sec"]
	bs := testing.Benchmark(BenchmarkStreamReplayThroughput)
	rep.StreamRecordsPerSec = bs.Extra["records/sec"]
	bh := testing.Benchmark(BenchmarkShardedReplayThroughput)
	rep.ShardedRecordsPerSec = bh.Extra["records/sec"]

	// Resume win: re-simulating a mid-replay prefix ns/op over resuming a
	// copy-on-write snapshot of it ns/op, plus the resume's allocation
	// count. Informational (resume and re-simulation are identity-gated;
	// only host time differs).
	cold := testing.Benchmark(BenchmarkColdReplayWarmup)
	forked := testing.Benchmark(BenchmarkForkReplayWarmup)
	if ns := forked.NsPerOp(); ns > 0 {
		rep.ForkSpeedup = float64(cold.NsPerOp()) / float64(ns)
	}
	rep.ForkAllocsPerFork = uint64(forked.AllocsPerOp())

	start := time.Now()
	if _, err := bench.RunAll(bench.Options{Scale: rep.SuiteScale}, nil); err != nil {
		t.Fatal(err)
	}
	rep.SuiteWallClockSec = time.Since(start).Seconds()

	if err := rep.WriteFile(*benchReportPath); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %s: %.0f records/sec (stream %.0f at %d workers, sharded %.0f at %d shards), fork speedup %.2fx (%d allocs/fork), suite %.1fs at scale %g on %d procs",
		*benchReportPath, rep.RecordsPerSec, rep.StreamRecordsPerSec, rep.DecodeWorkers,
		rep.ShardedRecordsPerSec, rep.Shards,
		rep.ForkSpeedup, rep.ForkAllocsPerFork, rep.SuiteWallClockSec,
		rep.SuiteScale, rep.GOMAXPROCS)
}
