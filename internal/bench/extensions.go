package bench

import (
	"fmt"
	"strings"
	"time"

	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/ssp"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// This file holds the *extension* studies — experiments beyond the paper's
// published evaluation that the paper explicitly points at:
//
//   - §III-B: "[Kindle] also allows carrying out additional studies on the
//     influence of page consolidation thread invocation frequency on an
//     application by varying the thread time interval, which is not
//     explored in original SSP proposal" → ExtConsolidation.
//   - §V-D: "we can use Kindle to study other NVM technologies by changing
//     NVM interface parameters" → ExtNVMTech.
//   - §III-C: "the influence of other OS activities such as context
//     switches" → ExtContextSwitch.
//   - Table I's NVM write-buffer size is a first-class design parameter of
//     the memory controller → ExtWriteBuffer.

// ExtConsolidationRow is one consolidation-interval point.
type ExtConsolidationRow struct {
	Interval     time.Duration
	NormTime     float64 // vs no-consistency baseline
	Consolidated uint64
	ConsolCycles uint64
}

// ExtConsolidationResult sweeps the SSP page-consolidation thread period
// at a fixed 5 ms consistency interval.
type ExtConsolidationResult struct {
	Rows []ExtConsolidationRow
}

// ExtConsolidation runs the consolidation-frequency study on Ycsb_mem.
func ExtConsolidation(opt Options) (*ExtConsolidationResult, error) {
	img, err := workloadImage(core.BenchYCSB, opt)
	if err != nil {
		return nil, err
	}
	base, err := runSSP(img, 0, 0, opt)
	if err != nil {
		return nil, err
	}
	res := &ExtConsolidationResult{}
	for _, iv := range []time.Duration{250 * time.Microsecond, time.Millisecond, 4 * time.Millisecond} {
		f := core.NewDefault()
		cfg := ssp.Config{
			ConsistencyInterval:   sim.FromDuration(opt.scaleInterval(5 * time.Millisecond)),
			ConsolidationInterval: sim.FromDuration(opt.scaleInterval(iv)),
		}
		ctl, err := f.EnableSSP(cfg)
		if err != nil {
			return nil, err
		}
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			return nil, err
		}
		lo, hi := rep.NVMRange()
		ctl.Enable(lo, hi)
		start := f.M.Clock.Now()
		if err := rep.Run(); err != nil {
			return nil, err
		}
		opt.Progress.AddRecords(rep.Consumed())
		ctl.Disable()
		res.Rows = append(res.Rows, ExtConsolidationRow{
			Interval:     iv,
			NormTime:     (f.M.Clock.Now() - start).Millis() / base,
			Consolidated: f.M.Stats.Get("ssp.pages_consolidated"),
			ConsolCycles: f.M.Stats.Get("ssp.consolidation_cycles"),
		})
	}
	return res, nil
}

// Render prints the consolidation study.
func (r *ExtConsolidationResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: SSP consolidation-thread frequency (Ycsb_mem, 5ms consistency)\n")
	b.WriteString("Consolidation  Normalized  Pages merged  Consolidation cycles\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%13v  %9.2fx  %12d  %20d\n",
			row.Interval, row.NormTime, row.Consolidated, row.ConsolCycles)
	}
	return b.String()
}

// CheckShape verifies the expected trend: a more frequent consolidation
// thread spends more cycles consolidating (the overhead the paper
// anticipated when fixing it to 1 ms).
func (r *ExtConsolidationResult) CheckShape() error {
	if len(r.Rows) < 2 {
		return fmt.Errorf("extConsolidation: too few rows")
	}
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ConsolCycles > r.Rows[i-1].ConsolCycles*2 {
			return fmt.Errorf("extConsolidation: cycles grew with a wider interval (%d -> %d)",
				r.Rows[i-1].ConsolCycles, r.Rows[i].ConsolCycles)
		}
	}
	for _, row := range r.Rows {
		if row.NormTime <= 1 {
			return fmt.Errorf("extConsolidation: normalized time <= 1 at %v", row.Interval)
		}
	}
	return nil
}

// NVMTech is a named NVM interface parameterization (§V-D).
type NVMTech struct {
	Name   string
	Timing mem.NVMTiming
}

// Techs returns the studied technology points: PCM (the paper's default),
// a faster STT-MRAM-like part and a slower ReRAM-like part.
func Techs() []NVMTech {
	pcm := mem.PCM()
	stt := pcm
	stt.ReadNanos, stt.WriteNanos = 50, 120
	rer := pcm
	rer.ReadNanos, rer.WriteNanos = 300, 1200
	return []NVMTech{
		{Name: "STT-MRAM", Timing: stt},
		{Name: "PCM", Timing: pcm},
		{Name: "ReRAM", Timing: rer},
	}
}

// ExtNVMTechRow is one technology point.
type ExtNVMTechRow struct {
	Tech       string
	ReadNanos  float64
	WriteNanos float64
	ExecMs     float64 // Ycsb_mem replay
	CkptMs     float64 // persistent-scheme sequential alloc micro
}

// ExtNVMTechResult is the NVM-technology sweep.
type ExtNVMTechResult struct {
	Rows []ExtNVMTechRow
}

// ExtNVMTech reruns a workload replay and a persistence micro-benchmark
// under each NVM technology.
func ExtNVMTech(opt Options) (*ExtNVMTechResult, error) {
	img, err := workloadImage(core.BenchYCSB, opt)
	if err != nil {
		return nil, err
	}
	res := &ExtNVMTechResult{}
	for _, tech := range Techs() {
		cfg := machine.DefaultConfig()
		cfg.NVM = tech.Timing
		execMs, err := replayExecMs(img, cfg, opt)
		if err != nil {
			return nil, err
		}

		// Persistent-scheme micro: NVM latency hits page-table hosting.
		f2 := core.New(cfg)
		if _, err := f2.EnablePersistence(persist.Persistent, opt.scaleInterval(ckptInterval)); err != nil {
			return nil, err
		}
		p2, err := f2.K.Spawn("tech-micro")
		if err != nil {
			return nil, err
		}
		f2.K.Switch(p2)
		f2.Manager().Start()
		start2 := f2.M.Clock.Now()
		if err := seqAllocAccess(f2, p2, opt.scaleBytes(64<<20)); err != nil {
			return nil, err
		}
		ckptMs := (f2.M.Clock.Now() - start2).Millis()

		res.Rows = append(res.Rows, ExtNVMTechRow{
			Tech:       tech.Name,
			ReadNanos:  tech.Timing.ReadNanos,
			WriteNanos: tech.Timing.WriteNanos,
			ExecMs:     execMs,
			CkptMs:     ckptMs,
		})
	}
	return res, nil
}

// replayExecMs replays img on a machine with the given configuration and
// returns the simulated execution time in milliseconds.
func replayExecMs(img *trace.Image, cfg machine.Config, opt Options) (float64, error) {
	f := core.New(cfg)
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		return 0, err
	}
	start := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		return 0, err
	}
	opt.Progress.AddRecords(rep.Consumed())
	return (f.M.Clock.Now() - start).Millis(), nil
}

// Render prints the sweep.
func (r *ExtNVMTechResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: NVM technology sweep (§V-D)\n")
	b.WriteString("Tech       read(ns)  write(ns)  Ycsb exec(ms)  persistent-scheme micro(ms)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-9s  %8.0f  %9.0f  %13.2f  %27.2f\n",
			row.Tech, row.ReadNanos, row.WriteNanos, row.ExecMs, row.CkptMs)
	}
	return b.String()
}

// CheckShape verifies slower technologies cost more in both the
// application replay and the persistence path.
func (r *ExtNVMTechResult) CheckShape() error {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].ExecMs <= r.Rows[i-1].ExecMs {
			return fmt.Errorf("extNVMTech: exec time not increasing (%s %.2f <= %s %.2f)",
				r.Rows[i].Tech, r.Rows[i].ExecMs, r.Rows[i-1].Tech, r.Rows[i-1].ExecMs)
		}
		if r.Rows[i].CkptMs <= r.Rows[i-1].CkptMs {
			return fmt.Errorf("extNVMTech: micro time not increasing at %s", r.Rows[i].Tech)
		}
	}
	return nil
}

// ExtWriteBufferRow is one buffer-size point.
type ExtWriteBufferRow struct {
	Entries int
	MicroMs float64
	Stalls  uint64
}

// ExtWriteBufferResult ablates the NVM controller's write-buffer depth
// (Table I fixes it at 48) on the write-heavy churn micro-benchmark.
type ExtWriteBufferResult struct {
	Rows []ExtWriteBufferRow
}

// ExtWriteBuffer runs the ablation.
func ExtWriteBuffer(opt Options) (*ExtWriteBufferResult, error) {
	res := &ExtWriteBufferResult{}
	for _, entries := range []int{8, 48, 192} {
		cfg := machine.DefaultConfig()
		cfg.NVM.WriteBuf = entries
		f := core.New(cfg)
		if _, err := f.EnablePersistence(persist.Persistent, opt.scaleInterval(ckptInterval)); err != nil {
			return nil, err
		}
		p, err := f.K.Spawn("wbuf-micro")
		if err != nil {
			return nil, err
		}
		f.K.Switch(p)
		f.Manager().Start()
		start := f.M.Clock.Now()
		if err := churn(f, p, opt.scaleBytes(128<<20), opt.scaleBytes(64<<20)); err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, ExtWriteBufferRow{
			Entries: entries,
			MicroMs: (f.M.Clock.Now() - start).Millis(),
			Stalls:  f.M.Stats.Get("nvm.write_stall"),
		})
	}
	return res, nil
}

// Render prints the ablation.
func (r *ExtWriteBufferResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: NVM write-buffer depth ablation (persistent scheme, churn micro)\n")
	b.WriteString("Entries   exec(ms)   write stalls\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7d  %9.2f  %13d\n", row.Entries, row.MicroMs, row.Stalls)
	}
	return b.String()
}

// CheckShape verifies deeper buffers stall less and never run slower.
func (r *ExtWriteBufferResult) CheckShape() error {
	for i := 1; i < len(r.Rows); i++ {
		if r.Rows[i].Stalls > r.Rows[i-1].Stalls {
			return fmt.Errorf("extWriteBuffer: stalls grew with depth (%d: %d -> %d: %d)",
				r.Rows[i-1].Entries, r.Rows[i-1].Stalls, r.Rows[i].Entries, r.Rows[i].Stalls)
		}
		if r.Rows[i].MicroMs > r.Rows[i-1].MicroMs*1.02 {
			return fmt.Errorf("extWriteBuffer: exec time grew with depth at %d entries", r.Rows[i].Entries)
		}
	}
	return nil
}

// ExtContextSwitchResult measures the interference of a co-scheduled
// process on a benchmark — context-switch costs plus TLB/cache pollution,
// the OS activity the paper notes user-level simulators cannot observe.
type ExtContextSwitchResult struct {
	SoloMs       float64
	CoSchedMs    float64
	Slowdown     float64
	Switches     uint64
	TLBFlushes   uint64
	KernelMisses uint64 // LLC misses attributed to kernel-mode work
}

// ExtContextSwitch runs Ycsb_mem solo, then co-scheduled round-robin with
// a Gapbs_pr cache-thrasher under a 1 ms quantum, and reports the
// foreground slowdown attributable to OS scheduling.
func ExtContextSwitch(opt Options) (*ExtContextSwitchResult, error) {
	fg, err := workloadImage(core.BenchYCSB, opt)
	if err != nil {
		return nil, err
	}
	bgCfg := workloads.DefaultPageRank()
	bgCfg.Ops = len(fg.Records) // same length as the foreground
	bg, err := workloads.PageRank(bgCfg)
	if err != nil {
		return nil, err
	}

	solo, err := replaySolo(fg)
	if err != nil {
		return nil, err
	}

	// Co-scheduled: interleave the two replays under the round-robin
	// scheduler; measure the foreground's completion time.
	f := core.NewDefault()
	_, fgRep, err := f.LaunchInit(fg)
	if err != nil {
		return nil, err
	}
	_, bgRep, err := f.LaunchInit(bg)
	if err != nil {
		return nil, err
	}
	sched := gemos.NewScheduler(f.K, sim.FromDuration(opt.scaleInterval(time.Millisecond)))
	sched.Add(fgRep.P)
	sched.Add(bgRep.P)
	sched.Start()
	defer sched.Stop()

	start := f.M.Clock.Now()
	cur := sched.Resched()
	for !fgRep.Done() {
		var rep *core.Replay
		if cur == fgRep.P {
			rep = fgRep
		} else {
			rep = bgRep
		}
		if rep.Done() {
			cur = sched.Resched()
			if sched.Len() == 0 {
				break
			}
			continue
		}
		if _, err := rep.Step(256); err != nil {
			return nil, err
		}
		if sched.NeedsResched() {
			cur = sched.Resched()
		}
	}
	coMs := (f.M.Clock.Now() - start).Millis()
	// The foreground only got ~half the CPU; normalize to CPU share to
	// isolate the *interference* (switch costs, TLB/cache pollution) from
	// plain time slicing. bgDone records replayed by the background.
	bgDone := len(bg.Records) - bgRep.Remaining()
	share := float64(len(fg.Records)) / float64(len(fg.Records)+bgDone)
	effective := coMs * share

	return &ExtContextSwitchResult{
		SoloMs:       solo,
		CoSchedMs:    effective,
		Slowdown:     effective / solo,
		Switches:     f.M.Stats.Get("os.context_switch"),
		TLBFlushes:   f.M.Stats.Get("tlb.flush_all"),
		KernelMisses: f.M.Stats.Get("cache.llc_miss_kernel"),
	}, nil
}

func replaySolo(img *trace.Image) (float64, error) {
	f := core.NewDefault()
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		return 0, err
	}
	start := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		return 0, err
	}
	return (f.M.Clock.Now() - start).Millis(), nil
}

// Render prints the interference study.
func (r *ExtContextSwitchResult) Render() string {
	var b strings.Builder
	b.WriteString("Extension: context-switch interference (Ycsb_mem vs co-scheduled Gapbs_pr)\n")
	fmt.Fprintf(&b, "solo:            %10.2f ms\n", r.SoloMs)
	fmt.Fprintf(&b, "co-scheduled:    %10.2f ms (CPU-share normalized)\n", r.CoSchedMs)
	fmt.Fprintf(&b, "interference:    %10.2fx\n", r.Slowdown)
	fmt.Fprintf(&b, "context switches %10d, TLB flushes %d, kernel-mode LLC misses %d\n",
		r.Switches, r.TLBFlushes, r.KernelMisses)
	return b.String()
}

// CheckShape verifies co-scheduling costs something beyond pure time
// slicing (pollution + switch overhead) and that switches happened.
func (r *ExtContextSwitchResult) CheckShape() error {
	if r.Switches == 0 {
		return fmt.Errorf("extContextSwitch: no context switches recorded")
	}
	if r.Slowdown <= 1.0 {
		return fmt.Errorf("extContextSwitch: no interference measured (%.3fx)", r.Slowdown)
	}
	return nil
}
