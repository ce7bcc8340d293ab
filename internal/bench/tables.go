package bench

import (
	"fmt"
	"strings"
	"sync"

	"kindle/internal/core"
	"kindle/internal/machine"
	"kindle/internal/mem"
)

// TableIResult echoes the machine configuration (the paper's Table I).
type TableIResult struct {
	Rows [][2]string
}

// TableI renders the active memory configuration.
func TableI() *TableIResult {
	cfg := machine.DefaultConfig()
	return &TableIResult{Rows: [][2]string{
		{"DRAM interface", "DDR4-2400 16x4"},
		{"NVM interface", "PCM"},
		{"NVM Write buffer size", fmt.Sprintf("%d", cfg.NVM.WriteBuf)},
		{"NVM Read buffer size", fmt.Sprintf("%d", cfg.NVM.ReadBuf)},
		{"Memory capacity", fmt.Sprintf("%dGB DRAM + %dGB NVM",
			cfg.Layout.DRAMSize/mem.GiB, cfg.Layout.NVMSize/mem.GiB)},
		{"CPU", "in-order x86-64 @ 3GHz"},
		{"Caches", fmt.Sprintf("%dKB L1 / %dKB L2 / %dMB LLC",
			cfg.Caches.L1.Size/mem.KiB, cfg.Caches.L2.Size/mem.KiB, cfg.Caches.LLC.Size/mem.MiB)},
	}}
}

// Render prints Table I.
func (r *TableIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table I: gem5 memory configuration\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %s\n", row[0], row[1])
	}
	return b.String()
}

// CheckShape verifies the configuration matches the paper.
func (r *TableIResult) CheckShape() error {
	want := map[string]string{
		"NVM Write buffer size": "48",
		"NVM Read buffer size":  "64",
		"Memory capacity":       "3GB DRAM + 2GB NVM",
	}
	got := map[string]string{}
	for _, row := range r.Rows {
		got[row[0]] = row[1]
	}
	for k, v := range want {
		if got[k] != v {
			return fmt.Errorf("tableI: %s = %q, want %q", k, got[k], v)
		}
	}
	return nil
}

// TableIIRow is one benchmark's trace statistics.
type TableIIRow struct {
	Benchmark string
	TotalOps  int
	ReadPct   float64
	WritePct  float64
}

// TableIIResult is Table II: benchmark details.
type TableIIResult struct {
	Rows []TableIIRow
}

// TableII regenerates the benchmark-details table by tracing each
// application at the requested scale. The three traces are independent, so
// they run across the worker pool.
func TableII(opt Options) (*TableIIResult, error) {
	benchmarks := []string{core.BenchPageRank, core.BenchSSSP, core.BenchYCSB}
	res := &TableIIResult{Rows: make([]TableIIRow, len(benchmarks))}
	label := func(i int) string { return "tableII/" + benchmarks[i] }
	err := forEachTask(opt, len(benchmarks), label, func(i int) error {
		img, err := workloadImage(benchmarks[i], opt)
		if err != nil {
			return err
		}
		r, w := img.Mix()
		res.Rows[i] = TableIIRow{
			Benchmark: benchmarks[i],
			TotalOps:  len(img.Records),
			ReadPct:   r,
			WritePct:  w,
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// Render prints Table II.
func (r *TableIIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table II: benchmark details\n")
	b.WriteString("Benchmark    Total Ops   read %   write %\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-11s %10d %8.0f %9.0f\n", row.Benchmark, row.TotalOps, row.ReadPct, row.WritePct)
	}
	return b.String()
}

// CheckShape verifies the traced mixes match the paper's Table II within
// two percentage points.
func (r *TableIIResult) CheckShape() error {
	want := map[string]float64{
		core.BenchPageRank: 77,
		core.BenchSSSP:     68,
		core.BenchYCSB:     71,
	}
	for _, row := range r.Rows {
		w, ok := want[row.Benchmark]
		if !ok {
			return fmt.Errorf("tableII: unexpected benchmark %q", row.Benchmark)
		}
		if diff := row.ReadPct - w; diff > 2 || diff < -2 {
			return fmt.Errorf("tableII: %s read%% = %.1f, want %.0f±2", row.Benchmark, row.ReadPct, w)
		}
	}
	return nil
}

// Experiment is the common surface of every table/figure reproduction.
type Experiment interface {
	Render() string
	CheckShape() error
}

// Results bundles a full run of the evaluation.
type Results struct {
	TableI   *TableIResult
	TableII  *TableIIResult
	Fig4a    *Fig4aResult
	Fig4b    *Fig4bResult
	TableIII *TableIIIResult
	TableIV  *TableIVResult
	Fig5     *Fig5Result
	TableV   *TableVResult
	Fig6     *Fig6Result
	TableVI  *TableVIResult

	// Intervals is the observability addition: per-dump-window counter
	// deltas over a checkpointed run (not a paper table).
	Intervals *IntervalsResult
	// ImageSizes compares v1 vs v2 disk-image sizes (not a paper table).
	ImageSizes *ImageSizesResult
}

// All returns the experiments in paper order.
func (r *Results) All() []Experiment {
	return []Experiment{r.TableI, r.TableII, r.Fig4a, r.Fig4b, r.TableIII, r.TableIV,
		r.Fig5, r.TableV, r.Fig6, r.TableVI, r.Intervals, r.ImageSizes}
}

// Render prints everything.
func (r *Results) Render() string {
	var b strings.Builder
	for _, e := range r.All() {
		b.WriteString(e.Render())
		b.WriteString("\n")
	}
	return b.String()
}

// CheckShapes validates every experiment, collecting all failures.
func (r *Results) CheckShapes() error {
	var errs []string
	for _, e := range r.All() {
		if err := e.CheckShape(); err != nil {
			errs = append(errs, err.Error())
		}
	}
	if len(errs) > 0 {
		return fmt.Errorf("shape check failures:\n  %s", strings.Join(errs, "\n  "))
	}
	return nil
}

// RunAll reproduces the complete evaluation. progress (optional) receives a
// line per completed experiment; with parallel workers the completion order
// varies, but the assembled Results are identical to a sequential run
// (every experiment writes its own slot, and each simulation owns its
// machine). Each Table II trace image is generated once and shared
// read-only by the experiments that use it, until RunAll returns.
func RunAll(opt Options, progress func(string)) (*Results, error) {
	var mu sync.Mutex
	note := func(s string) {
		if progress == nil {
			return
		}
		mu.Lock()
		progress(s)
		mu.Unlock()
	}
	res := &Results{}
	opt.images = &imageCache{entries: map[string]*cachedImage{}}
	tasks := []struct {
		name string
		run  func() error
	}{
		{"Table I", func() error { res.TableI = TableI(); return nil }},
		{"Table II", func() (err error) { res.TableII, err = TableII(opt); return }},
		{"Figure 4a", func() (err error) { res.Fig4a, err = Fig4a(opt); return }},
		{"Figure 4b", func() (err error) { res.Fig4b, err = Fig4b(opt); return }},
		{"Table III", func() (err error) { res.TableIII, err = TableIII(opt); return }},
		{"Table IV", func() (err error) { res.TableIV, err = TableIV(opt); return }},
		{"Figure 5", func() (err error) { res.Fig5, err = Fig5(opt); return }},
		{"Table V / Figure 6 / Table VI", func() (err error) {
			res.TableV, res.Fig6, res.TableVI, err = HSCCAll(opt)
			return
		}},
		{"Interval stats", func() (err error) { res.Intervals, err = Intervals(opt); return }},
		{"Image sizes", func() (err error) { res.ImageSizes, err = ImageSizes(opt); return }},
	}
	opt.Progress.SetWorkers(opt.workers())
	err := core.ForEachIndexed(opt.workers(), len(tasks), func(i int) error {
		opt.Progress.ExperimentStarted(tasks[i].name)
		if err := tasks[i].run(); err != nil {
			return err
		}
		opt.Progress.ExperimentFinished(tasks[i].name)
		note(tasks[i].name + " done")
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}
