package bench

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"kindle/internal/core"
	"kindle/internal/sim"
	"kindle/internal/ssp"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// workloadImage produces the trace image for one Table II benchmark at the
// requested scale (ops scale down; data-structure footprints stay at paper
// size so cache and TLB pressure remain realistic). Within one RunAll the
// image is built once and shared read-only (see imageCache).
func workloadImage(benchmark string, opt Options) (*trace.Image, error) {
	if opt.images != nil {
		return opt.images.get(benchmark, opt)
	}
	return buildWorkloadImage(benchmark, opt)
}

func buildWorkloadImage(benchmark string, opt Options) (*trace.Image, error) {
	ops := int(float64(workloads.PaperOps) * opt.scale())
	if ops < 50_000 {
		ops = 50_000
	}
	switch benchmark {
	case core.BenchPageRank:
		cfg := workloads.DefaultPageRank()
		cfg.Ops = ops
		return workloads.PageRank(cfg)
	case core.BenchSSSP:
		cfg := workloads.DefaultSSSP()
		cfg.Ops = ops
		return workloads.SSSP(cfg)
	case core.BenchYCSB:
		cfg := workloads.DefaultYCSB()
		cfg.Ops = ops
		return workloads.YCSB(cfg)
	default:
		return nil, fmt.Errorf("bench: unknown benchmark %q", benchmark)
	}
}

// imageCache builds each Table II trace image at most once for one RunAll:
// Table II, Figure 5, the HSCC study and Image sizes all trace the same
// three benchmarks at the same scale. The first caller of a benchmark
// builds it while later callers wait; every caller then shares the image
// read-only (replay and encoding only read a validated image). RunAll
// drops the cache when it returns, so the images live no longer than the
// suite.
type imageCache struct {
	mu      sync.Mutex
	entries map[string]*cachedImage
}

type cachedImage struct {
	once sync.Once
	img  *trace.Image
	err  error
}

func (c *imageCache) get(benchmark string, opt Options) (*trace.Image, error) {
	c.mu.Lock()
	e := c.entries[benchmark]
	if e == nil {
		e = &cachedImage{}
		c.entries[benchmark] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.img, e.err = buildWorkloadImage(benchmark, opt) })
	return e.img, e.err
}

// Fig5Row is one benchmark's normalized execution times under the three
// consistency intervals.
type Fig5Row struct {
	Benchmark  string
	BaselineMs float64
	Norm       map[time.Duration]float64 // interval -> T/T_baseline
}

// Fig5Result is Figure 5: influence of the SSP memory-consistency interval
// on performance, normalized to execution with no memory consistency.
type Fig5Result struct {
	Intervals []time.Duration
	Rows      []Fig5Row
}

// Fig5 regenerates Figure 5 (intervals 1, 5, 10 ms; consolidation thread
// fixed at 1 ms). The benchmark x interval grid (plus one baseline column
// per benchmark) fans out over the worker pool; the replayer only reads
// the trace image, so all runs of a benchmark share it.
func Fig5(opt Options) (*Fig5Result, error) {
	intervals := []time.Duration{time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond}
	benchmarks := []string{core.BenchPageRank, core.BenchSSSP, core.BenchYCSB}
	res := &Fig5Result{Intervals: intervals}

	imgs := make([]*trace.Image, len(benchmarks))
	traceLabel := func(i int) string { return "fig5/trace/" + benchmarks[i] }
	if err := forEachTask(opt, len(benchmarks), traceLabel, func(i int) error {
		var err error
		imgs[i], err = workloadImage(benchmarks[i], opt)
		return err
	}); err != nil {
		return nil, err
	}

	// Column 0 of each benchmark is the no-consistency baseline.
	cols := len(intervals) + 1
	times := make([]float64, len(benchmarks)*cols)
	label := func(idx int) string {
		bi, ci := idx/cols, idx%cols
		if ci == 0 {
			return "fig5/" + benchmarks[bi] + "/baseline"
		}
		return fmt.Sprintf("fig5/%s/%v", benchmarks[bi], intervals[ci-1])
	}
	err := forEachTask(opt, len(times), label, func(idx int) error {
		bi, ci := idx/cols, idx%cols
		if ci == 0 {
			t, err := runSSP(imgs[bi], 0, 0, opt)
			if err != nil {
				return fmt.Errorf("bench: fig5 %s baseline: %w", benchmarks[bi], err)
			}
			times[idx] = t
			return nil
		}
		t, err := runSSP(imgs[bi], intervals[ci-1], time.Millisecond, opt)
		if err != nil {
			return fmt.Errorf("bench: fig5 %s %v: %w", benchmarks[bi], intervals[ci-1], err)
		}
		times[idx] = t
		return nil
	})
	if err != nil {
		return nil, err
	}

	for bi, benchName := range benchmarks {
		row := Fig5Row{Benchmark: benchName, Norm: map[time.Duration]float64{}}
		row.BaselineMs = times[bi*cols]
		for ci, iv := range intervals {
			row.Norm[iv] = times[bi*cols+ci+1] / row.BaselineMs
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// runSSP replays img with SSP enabled at the given consistency interval
// (zero disables SSP entirely — the baseline) and returns the execution
// time in milliseconds.
func runSSP(img *trace.Image, interval, consolidation time.Duration, opt Options) (float64, error) {
	f := core.NewDefault()
	var ctl *ssp.Controller
	if interval > 0 {
		cfg := ssp.Config{
			ConsistencyInterval:   sim.FromDuration(opt.scaleInterval(interval)),
			ConsolidationInterval: sim.FromDuration(opt.scaleInterval(consolidation)),
		}
		var err error
		ctl, err = f.EnableSSP(cfg)
		if err != nil {
			return 0, err
		}
	}
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		return 0, err
	}
	if ctl != nil {
		lo, hi := rep.NVMRange()
		ctl.Enable(lo, hi)
	}
	start := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		return 0, err
	}
	opt.Progress.AddRecords(rep.Consumed())
	if ctl != nil {
		ctl.Disable()
	}
	return (f.M.Clock.Now() - start).Millis(), nil
}

// Render prints Figure 5's series.
func (r *Fig5Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 5: SSP consistency-interval study (normalized to no consistency)\n")
	b.WriteString("Benchmark   ")
	for _, iv := range r.Intervals {
		fmt.Fprintf(&b, "%9s", iv)
	}
	b.WriteString("\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s ", row.Benchmark)
		for _, iv := range r.Intervals {
			fmt.Fprintf(&b, "%8.2fx", row.Norm[iv])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CheckShape verifies Figure 5's findings: consistency always costs
// something (normalized > 1), the overhead shrinks monotonically as the
// interval widens, and the 10 ms interval cuts the overhead substantially
// versus 1 ms (paper: ~3x average reduction).
func (r *Fig5Result) CheckShape() error {
	if len(r.Rows) != 3 {
		return fmt.Errorf("fig5: want 3 benchmarks, got %d", len(r.Rows))
	}
	var totalReduction float64
	for _, row := range r.Rows {
		n1 := row.Norm[r.Intervals[0]]
		n5 := row.Norm[r.Intervals[1]]
		n10 := row.Norm[r.Intervals[2]]
		if n1 <= 1 || n5 <= 1 || n10 <= 1 {
			return fmt.Errorf("fig5: %s has normalized time <= 1 (%.3f %.3f %.3f)",
				row.Benchmark, n1, n5, n10)
		}
		if !(n1 > n5 && n5 > n10) {
			return fmt.Errorf("fig5: %s overhead not monotone in interval (%.3f %.3f %.3f)",
				row.Benchmark, n1, n5, n10)
		}
		totalReduction += (n1 - 1) / (n10 - 1)
	}
	if avg := totalReduction / float64(len(r.Rows)); avg < 1.5 {
		return fmt.Errorf("fig5: average overhead reduction 1ms→10ms only %.2fx", avg)
	}
	return nil
}
