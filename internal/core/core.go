// Package core is Kindle's public API: it composes the simulated machine,
// the gemOS kernel, the preparation component and the prototypes into the
// two-part framework of the paper — prepare an application into a disk
// image, then simulate it on a hybrid-memory machine with process
// persistence, SSP or HSCC enabled — behind a small facade.
//
// Typical use:
//
//	f := core.NewDefault()
//	img, _ := core.Prepare(core.BenchYCSB, true)
//	proc, rep, _ := f.LaunchInit(img)
//	mgr, _ := f.EnablePersistence(persist.Rebuild, 10*time.Millisecond)
//	mgr.Start()
//	rep.Run()
//	f.Crash()
//	procs, _ := f.Recover(10 * time.Millisecond)
package core

import (
	"fmt"
	"io"
	"time"

	"kindle/internal/gemos"
	"kindle/internal/hscc"
	"kindle/internal/machine"
	"kindle/internal/persist"
	"kindle/internal/prep"
	"kindle/internal/sim"
	"kindle/internal/ssp"
	"kindle/internal/trace"
	"kindle/internal/traffic"
)

// Re-exported benchmark names.
const (
	BenchPageRank = prep.BenchPageRank
	BenchSSSP     = prep.BenchSSSP
	BenchYCSB     = prep.BenchYCSB
)

// Framework is one Kindle instance: a machine plus its kernel.
type Framework struct {
	M *machine.Machine
	K *gemos.Kernel

	mgr *persist.Manager
}

// New boots a framework on a machine with the given configuration.
func New(cfg machine.Config) *Framework {
	m := machine.New(cfg)
	return &Framework{M: m, K: gemos.Boot(m)}
}

// NewDefault boots the paper's Table I machine.
func NewDefault() *Framework { return New(machine.DefaultConfig()) }

// NewSmall boots a reduced machine for tests and quick runs.
func NewSmall() *Framework { return New(machine.TestConfig()) }

// Prepare runs the preparation component for a Table II benchmark and
// returns its disk image. small selects the reduced configuration.
func Prepare(benchmark string, small bool) (*trace.Image, error) {
	d := &prep.Driver{Small: small}
	res, err := d.Run(benchmark)
	if err != nil {
		return nil, err
	}
	return res.Image, nil
}

// EnablePersistence attaches the process-persistence manager with the
// given page-table scheme and checkpoint interval. It must be called
// before spawning the processes that should be persisted.
func (f *Framework) EnablePersistence(scheme persist.Scheme, interval time.Duration) (*persist.Manager, error) {
	mgr, err := persist.Attach(f.K, scheme, sim.FromDuration(interval))
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	return mgr, nil
}

// EnableSSP attaches the Shadow Sub-Paging prototype.
func (f *Framework) EnableSSP(cfg ssp.Config) (*ssp.Controller, error) {
	return ssp.Attach(f.K, cfg)
}

// EnableHSCC attaches the HSCC prototype for process p.
func (f *Framework) EnableHSCC(p *gemos.Process, cfg hscc.Config) (*hscc.Controller, error) {
	return hscc.Attach(f.K, p, cfg)
}

// RunTraffic runs the multi-tenant synthetic-load engine to completion:
// spec.Tenants gemOS processes driven through the scheduler under the
// spec's arrival process and workload mix, contending for the machine's
// shared memory system (and, when persistence is enabled, checkpoint
// bandwidth). onOp, when non-nil, observes per-op progress. The run is
// deterministic: the same spec and seed produce byte-identical stats
// dumps.
func (f *Framework) RunTraffic(spec traffic.Spec, onOp func(done, total int)) (*traffic.Result, error) {
	eng, err := traffic.New(f.K, spec)
	if err != nil {
		return nil, err
	}
	eng.OnOp = onOp
	return eng.Run()
}

// Crash power-fails the machine.
func (f *Framework) Crash() { f.M.Crash() }

// Recover reboots the OS on the crashed machine and runs the recovery
// procedure, returning the recovered processes. The framework's kernel is
// replaced (the old kernel state was volatile).
func (f *Framework) Recover(interval time.Duration) ([]*gemos.Process, error) {
	f.K = gemos.Boot(f.M)
	mgr, err := persist.Reattach(f.K, sim.FromDuration(interval))
	if err != nil {
		return nil, err
	}
	f.mgr = mgr
	return mgr.Recover()
}

// Manager returns the active persistence manager (nil when persistence is
// not enabled).
func (f *Framework) Manager() *persist.Manager { return f.mgr }

// RunIdle passes d of simulated time with no instructions in flight —
// checkpoint timers, migration intervals and NVM drains keep firing. tick
// is the boundary grain (0 = a single step): an event fires at the first
// boundary at or after its deadline, and the clock jumps the empty
// boundaries in between (see machine.RunUntil).
func (f *Framework) RunIdle(d, tick time.Duration) {
	f.M.RunUntil(f.M.Clock.Now()+sim.FromDuration(d), sim.FromDuration(tick))
}

// Replay drives a traced application through the simulated machine — the
// generated template program running as gemOS's init process. The record
// stream comes from a trace.RecordSource, so a replay holds at most a
// couple of decoded chunks in memory regardless of trace length; a
// materialized Image replays through the same path via its adapter.
type Replay struct {
	f     *Framework
	P     *gemos.Process
	src   trace.RecordSource
	areas []trace.Area
	bases []uint64

	batch    []trace.Record
	pos      int // cursor into batch
	consumed int
	total    int // -1 when the source cannot tell upfront
	drained  bool

	// ComputeCyclesPerPeriod charges non-memory instruction time between
	// records from the trace's logical periods.
	ComputeCyclesPerPeriod sim.Cycles
	// TickEvery fires machine events every N records (default 32).
	TickEvery int

	// OnStep, when set, observes replay progress: it is called once per
	// Step call (not per record — Run steps in 64Ki-record slabs, so the
	// hook costs nothing measurable) with the consumed count and the trace
	// total (-1 when the source cannot tell). The monitor's /progress
	// endpoint hangs off this.
	OnStep func(consumed, total int)

	lastPeriod uint64
}

// LaunchInit spawns the init process for a materialized image: each traced
// area is mmapped (MAP_NVM for NVM areas) and a replayer is returned.
func (f *Framework) LaunchInit(img *trace.Image) (*gemos.Process, *Replay, error) {
	if err := img.Validate(); err != nil {
		return nil, nil, err
	}
	return f.LaunchStream(trace.NewImageSource(img))
}

// LaunchStream spawns the init process for a streamed trace. The source's
// header must be complete (benchmark, areas); records decode on demand as
// the replay advances. The caller keeps ownership of the source and must
// Close it after the replay (the replayer never does).
func (f *Framework) LaunchStream(src trace.RecordSource) (*gemos.Process, *Replay, error) {
	areas := src.Areas()
	if err := trace.ValidateHeader(src.Benchmark(), areas); err != nil {
		return nil, nil, err
	}
	p, err := f.K.Spawn(src.Benchmark())
	if err != nil {
		return nil, nil, err
	}
	f.K.Switch(p)
	rep := &Replay{
		f:                      f,
		P:                      p,
		src:                    src,
		areas:                  areas,
		total:                  src.Total(),
		ComputeCyclesPerPeriod: 2,
		TickEvery:              32,
	}
	for _, a := range areas {
		var flags uint32
		if a.NVM {
			flags |= gemos.MapNVM
		}
		prot := gemos.ProtRead
		if a.Write {
			prot |= gemos.ProtWrite
		}
		base, err := f.K.Mmap(p, 0, a.Size, prot, flags)
		if err != nil {
			return nil, nil, fmt.Errorf("core: mapping area %q: %w", a.Name, err)
		}
		rep.bases = append(rep.bases, base)
	}
	return p, rep, nil
}

// NVMRange returns the lowest and highest virtual addresses of the
// replay's NVM areas (the range communicated to SSP hardware via MSRs).
func (r *Replay) NVMRange() (lo, hi uint64) {
	for i, a := range r.areas {
		if !a.NVM {
			continue
		}
		base := r.bases[i]
		if lo == 0 || base < lo {
			lo = base
		}
		if base+a.Size > hi {
			hi = base + a.Size
		}
	}
	return lo, hi
}

// Rebind points the replay at a recovered process after crash recovery.
// The recovered VMA layout must still cover the replay's area bases (it
// does when recovery restored the checkpointed layout of the same run).
func (r *Replay) Rebind(p *gemos.Process) error {
	for i, a := range r.areas {
		v := p.AS.Find(r.bases[i])
		if v == nil {
			return fmt.Errorf("core: recovered process lacks area %q at %#x", a.Name, r.bases[i])
		}
	}
	r.P = p
	return nil
}

// Done reports whether the trace is exhausted.
func (r *Replay) Done() bool {
	if r.pos < len(r.batch) {
		return false
	}
	if r.total >= 0 {
		return r.consumed >= r.total
	}
	return r.drained
}

// Total returns the record count of the trace, or -1 when the source
// cannot tell without decoding to the end (a non-seekable v2 stream).
func (r *Replay) Total() int { return r.total }

// Consumed returns how many records have been replayed so far, counting
// any prefix a snapshot-resumed replay skipped over (the absolute trace
// position).
func (r *Replay) Consumed() int { return r.consumed }

// Remaining returns how many records are left, or -1 when the source's
// total is unknown.
func (r *Replay) Remaining() int {
	if r.total < 0 {
		return -1
	}
	return r.total - r.consumed
}

// fill fetches the next decoded batch from the source. It returns false at
// end of stream.
func (r *Replay) fill() (bool, error) {
	for {
		batch, err := r.src.Next()
		if err == io.EOF {
			r.drained = true
			if r.total >= 0 && r.consumed < r.total {
				return false, fmt.Errorf("core: trace ends after %d of %d records", r.consumed, r.total)
			}
			return false, nil
		}
		if err != nil {
			return false, fmt.Errorf("core: reading trace: %w", err)
		}
		if len(batch) == 0 {
			continue
		}
		r.batch, r.pos = batch, 0
		return true, nil
	}
}

// Step replays up to n records, firing machine events along the way. It
// returns done=true when the trace is exhausted.
//
// Dispatch is batched: records are consumed in contiguous runs bounded by
// the decoded batch, the remaining budget and the next tick boundary, so
// the per-record path carries none of the refill, tick-modulo or field
// re-resolution work — stepBatch hoists it all per run.
func (r *Replay) Step(n int) (done bool, err error) {
	k := r.f.K
	if k.Current() != r.P {
		k.Switch(r.P)
	}
	tickEvery := r.TickEvery
	if tickEvery <= 0 {
		tickEvery = 32
	}
	for remaining := n; remaining > 0; {
		if r.pos >= len(r.batch) {
			ok, err := r.fill()
			if err != nil {
				return false, err
			}
			if !ok {
				break
			}
		}
		run := len(r.batch) - r.pos
		if run > remaining {
			run = remaining
		}
		if until := tickEvery - r.consumed%tickEvery; run > until {
			run = until
		}
		if err := r.stepBatch(r.batch[r.pos : r.pos+run]); err != nil {
			return false, err
		}
		remaining -= run
		if r.consumed%tickEvery == 0 {
			k.Tick()
		}
	}
	k.Tick()
	if r.OnStep != nil {
		r.OnStep(r.consumed, r.total)
	}
	return r.Done(), nil
}

// stepBatch replays one contiguous run of records with the loop-invariant
// state (clock, core, area bases, compute-cycle rate) resolved once. The
// caller has already sized recs so no tick boundary falls inside the run.
func (r *Replay) stepBatch(recs []trace.Record) error {
	m := r.f.M
	clock := m.Clock
	core := m.Core
	bases := r.bases
	ccp := r.ComputeCyclesPerPeriod
	lastPeriod := r.lastPeriod
	for j := range recs {
		rec := &recs[j]
		if rec.Period > lastPeriod {
			clock.Advance(sim.Cycles(rec.Period-lastPeriod) * ccp)
			lastPeriod = rec.Period
		}
		va := bases[rec.Area] + rec.Offset
		if _, err := core.Access(va, rec.Op == trace.Write, int(rec.Size)); err != nil {
			// The failing record counts as consumed, exactly as before.
			r.pos += j + 1
			r.consumed += j + 1
			r.lastPeriod = lastPeriod
			return fmt.Errorf("core: replaying record %d: %w", r.consumed-1, err)
		}
	}
	r.pos += len(recs)
	r.consumed += len(recs)
	r.lastPeriod = lastPeriod
	return nil
}

// Run replays the whole remaining trace.
func (r *Replay) Run() error {
	for {
		done, err := r.Step(1 << 16)
		if err != nil {
			return err
		}
		if done {
			return nil
		}
	}
}

// Teardown munmaps every area (the template's trailing munmap calls).
func (r *Replay) Teardown() error {
	for i, a := range r.areas {
		if err := r.f.K.Munmap(r.P, r.bases[i], a.Size); err != nil {
			return err
		}
	}
	return nil
}
