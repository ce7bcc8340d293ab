package kindle_test

import (
	"testing"
	"time"

	"kindle/internal/core"
	"kindle/internal/persist"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// forkBenchWarmup is the replay prefix both warmup benchmarks reach: a
// multiple of the replay tick grain (32), most of the 50k-record image, so
// the simulated prefix dominates the boot cost, as it does for a `kindle
// -snapshot-in` run or a crash-sweep point.
const forkBenchWarmup = 32_000

func forkBenchImage(b *testing.B) *trace.Image {
	cfg := workloads.DefaultYCSB()
	cfg.Ops = 50_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return img
}

// BenchmarkColdReplayWarmup reaches a mid-replay state from scratch: boot,
// enable persistence, launch the replay and simulate the forkBenchWarmup
// prefix. This is what a run pays when it does not resume a snapshot.
func BenchmarkColdReplayWarmup(b *testing.B) {
	img := forkBenchImage(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f := core.NewDefault()
		mgr, err := f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
		if err != nil {
			b.Fatal(err)
		}
		mgr.Start()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := rep.Step(forkBenchWarmup); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkForkReplayWarmup reaches the same mid-replay state by resuming
// a copy-on-write snapshot captured once: restore the machine, kernel and
// manager and fast-forward the decoder past the prefix without simulating
// it, as `kindle -snapshot-in` does. ns/op against
// BenchmarkColdReplayWarmup's is the fork_speedup recorded in
// BENCH_replay.json; allocs/op is fork_allocs_per_fork.
func BenchmarkForkReplayWarmup(b *testing.B) {
	img := forkBenchImage(b)
	f := core.NewDefault()
	mgr, err := f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
	if err != nil {
		b.Fatal(err)
	}
	mgr.Start()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := rep.Step(forkBenchWarmup); err != nil {
		b.Fatal(err)
	}
	snap := f.Snapshot(rep)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cf, crep, err := core.RunFromSnapshot(snap, trace.NewImageSource(img))
		if err != nil {
			b.Fatal(err)
		}
		if crep.Consumed() != forkBenchWarmup || cf.M.Clock.Now() == 0 {
			b.Fatalf("fork resumed at record %d, want %d", crep.Consumed(), forkBenchWarmup)
		}
	}
}
