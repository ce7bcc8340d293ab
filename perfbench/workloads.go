package main

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"time"

	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// workload is one named benchmark input. setup builds the inputs from the
// seed (outside the timed region); the job it returns runs the workload once
// and may be called any number of times. BENCHMARK.json and README.md say
// why each workload was chosen.
type workload struct {
	name  string
	setup func(seed uint64, scale float64) (job, error)
}

// job runs a prepared workload once. tr is nil in untraced runs.
type job func(tr *tracer) (runResult, error)

// runResult is what one run of a job reports back to the harness.
type runResult struct {
	// accesses is cpu.load + cpu.store summed over every registry.
	accesses uint64
	// records is the number of trace records replayed (0 when the
	// workload has no trace).
	records int
	// simCycles is the final simulated time of the run.
	simCycles sim.Cycles
	// stats holds the registries whose dumps identify the run.
	stats []*sim.Stats
	// probe, set only in traced runs, times extra calls after the timed
	// region.
	probe func() error
}

// Full-size parameters. scale < 1 shrinks them for the smoke tests.
const (
	ycsbRecords = 4_000_000
	prRecords   = 6_000_000

	churnArea         = 128 << 20
	churnChunk        = 32 << 20
	churnAccessRounds = 3
	churnWritePct     = 25
	churnInterval     = time.Millisecond
	churnIdle         = 50 * time.Millisecond
	churnIdleTick     = 10 * time.Microsecond
	// churnTickEvery is how many page accesses pass between kernel ticks,
	// as in the Table III/IV micro-benchmarks.
	churnTickEvery = 16
)

var benchWorkloads = []workload{
	// The pure replay hot path: no decode, no OS work after launch.
	{name: "ycsb-replay", setup: setupYCSB},
	// Adds streamed decode, page walks, LLC misses and DRAM traffic.
	{name: "pr-stream", setup: setupPRStream},
	// Write-heavy NVM churn with checkpoints, crash and recovery.
	{name: "persist-churn", setup: setupChurn},
	// Fork, stats merge and parallel machines.
	{name: "pr-sharded", setup: setupPRSharded},
}

func findWorkload(name string) (workload, error) {
	for _, w := range benchWorkloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func scaled(n int, scale float64) int {
	return max(1, int(float64(n)*scale))
}

// accessCount is the simulated access count of a registry.
func accessCount(st *sim.Stats) uint64 {
	return st.Get("cpu.load") + st.Get("cpu.store")
}

// replay drives rep to the end of its trace. Traced runs step in the same
// 64Ki-record slabs Replay.Run uses and time each Step call.
func replay(rep *core.Replay, tr *tracer) error {
	if tr == nil {
		return rep.Run()
	}
	for {
		start := tr.start()
		done, err := rep.Step(1 << 16)
		tr.end(spanStep, start)
		if err != nil || done {
			return err
		}
	}
}

// finishReplay checks that a replay consumed its whole trace and packages
// its result.
func finishReplay(f *core.Framework, rep *core.Replay, want int) (runResult, error) {
	if rep.Consumed() != want {
		return runResult{}, fmt.Errorf("replayed %d records, want %d", rep.Consumed(), want)
	}
	return runResult{
		accesses:  accessCount(f.M.Stats),
		records:   want,
		simCycles: f.M.Clock.Now(),
		stats:     []*sim.Stats{f.M.Stats},
	}, nil
}

// setupYCSB materializes the Ycsb_mem trace. Each run replays it on a fresh
// Table I machine with the stepped clock and no persistence.
func setupYCSB(seed uint64, scale float64) (job, error) {
	cfg := workloads.DefaultYCSB()
	cfg.Ops = scaled(ycsbRecords, scale)
	cfg.Seed = seed
	img, err := workloads.YCSB(cfg)
	if err != nil {
		return nil, err
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return func(tr *tracer) (runResult, error) {
		f := core.NewDefault()
		_, rep, err := f.LaunchStream(tr.wrap(trace.NewImageSource(img)))
		if err != nil {
			return runResult{}, err
		}
		if err := replay(rep, tr); err != nil {
			return runResult{}, err
		}
		return finishReplay(f, rep, len(img.Records))
	}, nil
}

// encodePageRank generates the Gapbs_pr trace and encodes it as a v2 image.
func encodePageRank(seed uint64, scale float64) (data []byte, records int, err error) {
	cfg := workloads.DefaultPageRank()
	cfg.Ops = scaled(prRecords, scale)
	cfg.Seed = seed
	img, err := workloads.PageRank(cfg)
	if err != nil {
		return nil, 0, err
	}
	var buf bytes.Buffer
	if err := trace.EncodeV2(&buf, img, trace.StreamOptions{}); err != nil {
		return nil, 0, err
	}
	return buf.Bytes(), len(img.Records), nil
}

// setupPRStream encodes the Gapbs_pr image. Each run decodes it with the
// pipelined decoder at GOMAXPROCS workers while replaying.
func setupPRStream(seed uint64, scale float64) (job, error) {
	data, records, err := encodePageRank(seed, scale)
	if err != nil {
		return nil, err
	}
	return func(tr *tracer) (runResult, error) {
		src, err := trace.OpenStreamConfig(bytes.NewReader(data),
			trace.StreamConfig{DecodeWorkers: runtime.GOMAXPROCS(0)})
		if err != nil {
			return runResult{}, err
		}
		defer src.Close()
		f := core.NewDefault()
		_, rep, err := f.LaunchStream(tr.wrap(src))
		if err != nil {
			return runResult{}, err
		}
		if err := replay(rep, tr); err != nil {
			return runResult{}, err
		}
		if ds, ok := src.(trace.DecodeStatsSource); ok {
			st := ds.DecodeStats()
			tr.addNs(spanBufferStall, int64(st.BufferStallNs))
			tr.addNs(spanReorderStall, int64(st.ReorderStallNs))
		}
		return finishReplay(f, rep, records)
	}, nil
}

// setupPRSharded encodes the Gapbs_pr image. Each run replays it through
// ReplaySharded with one shard per CPU and warm-forked segments.
func setupPRSharded(seed uint64, scale float64) (job, error) {
	data, records, err := encodePageRank(seed, scale)
	if err != nil {
		return nil, err
	}
	open := func() (io.ReadSeeker, error) { return bytes.NewReader(data), nil }
	return func(tr *tracer) (runResult, error) {
		start := tr.start()
		res, err := core.ReplaySharded(open, core.ShardedOptions{
			Shards:   runtime.GOMAXPROCS(0),
			WarmFork: true,
		})
		tr.end(spanSharded, start)
		if err != nil {
			return runResult{}, err
		}
		if res.Records != records {
			return runResult{}, fmt.Errorf("sharded replay covered %d records, want %d", res.Records, records)
		}
		out := runResult{
			accesses:  accessCount(res.Stats),
			records:   res.Records,
			simCycles: res.Cycles,
			stats:     []*sim.Stats{res.Stats},
		}
		if tr != nil {
			out.probe = func() error { return traceFork(tr, data, res) }
		}
		return out, nil
	}, nil
}

// forkSamples is how many snapshots and resumes a traced pr-sharded run
// times on its warm template.
const forkSamples = 16

// traceFork times the sharded engine's building blocks on their own: a warm
// template (booted machine with the image's areas mapped) is snapshotted
// and resumed forkSamples times, and the segment registries are merged
// again.
func traceFork(tr *tracer, data []byte, res *core.ShardedResult) error {
	ix, err := trace.ScanChunkIndex(bytes.NewReader(data))
	if err != nil {
		return err
	}
	rs := bytes.NewReader(data)
	src, err := ix.OpenRange(rs, 0, 0)
	if err != nil {
		return err
	}
	f := core.NewDefault()
	_, rep, err := f.LaunchStream(src)
	if err != nil {
		return err
	}
	var snap *core.Snapshot
	for i := 0; i < forkSamples; i++ {
		start := tr.start()
		snap = f.Snapshot(rep)
		tr.end(spanSnapshot, start)
	}
	for i := 0; i < forkSamples; i++ {
		src, err := ix.OpenRange(rs, 0, 0)
		if err != nil {
			return err
		}
		start := tr.start()
		_, _, err = core.RunFromSnapshot(snap, src)
		tr.end(spanResume, start)
		if err != nil {
			return err
		}
	}
	merged := sim.NewStats()
	start := tr.start()
	for _, seg := range res.Segments {
		merged.MergeFrom(seg.Stats)
	}
	tr.end(spanMerge, start)
	if accessCount(merged) != accessCount(res.Stats) {
		return fmt.Errorf("re-merged segments count %d accesses, ReplaySharded %d",
			accessCount(merged), accessCount(res.Stats))
	}
	return nil
}

// churnPlan is the seeded input of persist-churn: for every full-area
// round, which pages are written (the rest are read).
type churnPlan struct {
	area, chunk uint64
	writes      [][]bool // [round][page]
}

func newChurnPlan(seed uint64, scale float64) churnPlan {
	area := max(uint64(float64(churnArea)*scale)&^(mem.PageSize-1), 16*mem.PageSize)
	chunk := area / (churnArea / churnChunk)
	pages := area / mem.PageSize
	rng := sim.NewRNG(seed)
	plan := churnPlan{area: area, chunk: chunk}
	for r := 0; r < 2*churnAccessRounds; r++ {
		w := make([]bool, pages)
		for i := range w {
			w[i] = rng.Intn(100) < churnWritePct
		}
		plan.writes = append(plan.writes, w)
	}
	return plan
}

// setupChurn builds the access plan and, per page-table scheme, a warm
// template: a Table I machine with the event-driven clock, persistence
// attached at a 1 ms interval and the churn process spawned. Each run forks
// both templates and drives them through the churn.
func setupChurn(seed uint64, scale float64) (job, error) {
	plan := newChurnPlan(seed, scale)
	schemes := []persist.Scheme{persist.Rebuild, persist.Persistent}
	var snaps []*core.Snapshot
	for _, scheme := range schemes {
		cfg := machine.DefaultConfig()
		cfg.EventDrivenClock = true
		f := core.New(cfg)
		mgr, err := f.EnablePersistence(scheme, churnInterval)
		if err != nil {
			return nil, err
		}
		p, err := f.K.Spawn("churn")
		if err != nil {
			return nil, err
		}
		f.K.Switch(p)
		mgr.Start()
		snaps = append(snaps, f.Snapshot(nil))
	}
	return func(tr *tracer) (runResult, error) {
		var res runResult
		for i, snap := range snaps {
			f, err := core.Resume(snap)
			if err != nil {
				return runResult{}, err
			}
			if err := runChurn(f, plan, tr); err != nil {
				return runResult{}, fmt.Errorf("%v: %w", schemes[i], err)
			}
			res.accesses += accessCount(f.M.Stats)
			res.simCycles += f.M.Clock.Now()
			res.stats = append(res.stats, f.M.Stats)
		}
		return res, nil
	}, nil
}

// churner drives the churn process through the kernel's public calls,
// timing each call when traced.
type churner struct {
	f  *core.Framework
	p  *gemos.Process
	tr *tracer
}

func (c *churner) mmap(addr, size uint64) (uint64, error) {
	start := c.tr.start()
	a, err := c.f.K.Mmap(c.p, addr, size, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	c.tr.end(spanMmap, start)
	return a, err
}

func (c *churner) munmap(addr, size uint64) error {
	start := c.tr.start()
	err := c.f.K.Munmap(c.p, addr, size)
	c.tr.end(spanMunmap, start)
	return err
}

func (c *churner) tick() {
	start := c.tr.start()
	c.f.K.Tick()
	c.tr.end(spanTick, start)
}

// touch accesses every page of [base, base+size), writing the pages
// writes marks (all of them when writes is nil).
func (c *churner) touch(base, size uint64, writes []bool) error {
	pages := size / mem.PageSize
	for i := uint64(0); i < pages; i++ {
		write := writes == nil || writes[i]
		start := c.tr.start()
		_, err := c.f.M.Core.Access(base+i*mem.PageSize, write, 8)
		c.tr.end(spanTouch, start)
		if err != nil {
			return err
		}
		if i%churnTickEvery == 0 {
			c.tick()
		}
	}
	c.tick()
	return nil
}

// runChurn is the persist-churn driver on one forked template: populate the
// NVM area, two munmap/mmap rounds of a chunk each followed by full-area
// read/write rounds, an idle tail, then checkpoint, crash and recover, and
// check the recovery invariants.
func runChurn(f *core.Framework, plan churnPlan, tr *tracer) error {
	c := &churner{f: f, p: f.K.Current(), tr: tr}
	if c.p == nil {
		return fmt.Errorf("template has no running process")
	}
	a, err := c.mmap(0, plan.area)
	if err != nil {
		return err
	}
	if err := c.touch(a, plan.area, nil); err != nil {
		return err
	}
	for round := 0; round < 2; round++ {
		if err := c.munmap(a, plan.chunk); err != nil {
			return err
		}
		c.tick()
		if _, err := c.mmap(a, plan.chunk); err != nil {
			return err
		}
		c.tick()
		for r := 0; r < churnAccessRounds; r++ {
			if err := c.touch(a, plan.area, plan.writes[round*churnAccessRounds+r]); err != nil {
				return err
			}
		}
	}

	start := tr.start()
	f.RunIdle(churnIdle, churnIdleTick)
	tr.end(spanIdle, start)

	start = tr.start()
	f.Manager().Checkpoint()
	tr.end(spanCheckpoint, start)

	started := f.M.Stats.Get("persist.checkpoints_started")
	f.Crash()
	start = tr.start()
	procs, err := f.Recover(churnInterval)
	tr.end(spanRecover, start)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	exp := persist.RecoveryExpectation{MaxGen: started, CheckGen: true, WantProcs: 1}
	if err := persist.CheckRecoveryInvariants(f.Manager(), procs, exp); err != nil {
		return fmt.Errorf("recovery invariants: %w", err)
	}
	return nil
}
