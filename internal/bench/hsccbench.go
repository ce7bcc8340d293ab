package bench

import (
	"fmt"
	"strings"

	"kindle/internal/core"
	"kindle/internal/hscc"
	"kindle/internal/sim"
	"kindle/internal/trace"
	"time"
)

// hsccThresholds are the DRAM fetch thresholds of the paper's study.
var hsccThresholds = []uint32{5, 25, 50}

// hsccRun is the measured outcome of one (benchmark, threshold, mode) run.
type hsccRun struct {
	execMs         float64
	pagesMigrated  uint64
	selectionCycle uint64
	copyCycle      uint64
}

// runHSCC replays img with HSCC at the given threshold. chargeOS selects
// whether OS migration activities cost simulated time (false = the
// hardware-only baseline of Fig. 6).
func runHSCC(img *trace.Image, threshold uint32, chargeOS bool, opt Options) (hsccRun, error) {
	f := core.NewDefault()
	p, rep, err := f.LaunchInit(img)
	if err != nil {
		return hsccRun{}, err
	}
	cfg := hscc.DefaultConfig()
	cfg.FetchThreshold = threshold
	cfg.ChargeOSTime = chargeOS
	// Fixed regardless of opt.Scale: the access-count regime depends on
	// memory operations per interval, and the replayer's op rate per
	// simulated millisecond is scale-invariant.
	cfg.MigrationInterval = sim.FromDuration(hsccMigrationInterval / hsccTimeCompression)
	ctl, err := f.EnableHSCC(p, cfg)
	if err != nil {
		return hsccRun{}, err
	}
	ctl.Start()
	start := f.M.Clock.Now()
	if err := rep.Run(); err != nil {
		return hsccRun{}, err
	}
	opt.Progress.AddRecords(rep.Consumed())
	ctl.Stop()
	return hsccRun{
		execMs:         (f.M.Clock.Now() - start).Millis(),
		pagesMigrated:  f.M.Stats.Get("hscc.pages_migrated"),
		selectionCycle: f.M.Stats.Get("hscc.page_selection_cycles"),
		copyCycle:      f.M.Stats.Get("hscc.page_copy_cycles"),
	}, nil
}

// hsccMigrationInterval is 31.25 ms (10^8 cycles in the HSCC paper).
const hsccMigrationInterval = 31250 * time.Microsecond

// hsccTimeCompression compensates for trace-time compression: Kindle's
// replayer charges ~2 cycles of compute per trace period, while the
// paper's gem5 executes every instruction of the application between
// memory operations, so a fixed wall-clock migration interval covers ~16x
// more memory operations here than there. Dividing the interval restores
// the paper's regime of per-page access counts per interval relative to
// the 5/25/50 fetch thresholds. See EXPERIMENTS.md.
const hsccTimeCompression = 16

// hsccStudy runs the full benchmark x threshold matrix once and shares the
// results across Table V, Fig. 6 and Table VI (the paper's three artifacts
// come from the same runs).
type hsccStudy struct {
	benchmarks []string
	withOS     map[string]map[uint32]hsccRun
	hwOnly     map[string]map[uint32]hsccRun
}

// runHSCCStudy runs the benchmark x threshold x {OS-charged, HW-only}
// grid over the worker pool. Each of the 18 runs owns its machine; the
// trace image of a benchmark is shared read-only across its six runs.
func runHSCCStudy(opt Options) (*hsccStudy, error) {
	st := &hsccStudy{
		benchmarks: []string{core.BenchPageRank, core.BenchSSSP, core.BenchYCSB},
		withOS:     map[string]map[uint32]hsccRun{},
		hwOnly:     map[string]map[uint32]hsccRun{},
	}
	imgs := make([]*trace.Image, len(st.benchmarks))
	traceLabel := func(i int) string { return "hscc/trace/" + st.benchmarks[i] }
	if err := forEachTask(opt, len(st.benchmarks), traceLabel, func(i int) error {
		var err error
		imgs[i], err = workloadImage(st.benchmarks[i], opt)
		return err
	}); err != nil {
		return nil, err
	}

	// Even index = OS time charged, odd = hardware-only baseline.
	runs := make([]hsccRun, len(st.benchmarks)*len(hsccThresholds)*2)
	label := func(idx int) string {
		cell := idx / 2
		l := fmt.Sprintf("hscc/%s/th-%d",
			st.benchmarks[cell/len(hsccThresholds)], hsccThresholds[cell%len(hsccThresholds)])
		if idx%2 != 0 {
			l += "/hw-only"
		}
		return l
	}
	err := forEachTask(opt, len(runs), label, func(idx int) error {
		cell, chargeOS := idx/2, idx%2 == 0
		bi, ti := cell/len(hsccThresholds), cell%len(hsccThresholds)
		r, err := runHSCC(imgs[bi], hsccThresholds[ti], chargeOS, opt)
		if err != nil {
			suffix := ""
			if !chargeOS {
				suffix = " hw-only"
			}
			return fmt.Errorf("bench: hscc %s th-%d%s: %w",
				st.benchmarks[bi], hsccThresholds[ti], suffix, err)
		}
		runs[idx] = r
		return nil
	})
	if err != nil {
		return nil, err
	}

	for bi, b := range st.benchmarks {
		st.withOS[b] = map[uint32]hsccRun{}
		st.hwOnly[b] = map[uint32]hsccRun{}
		for ti, th := range hsccThresholds {
			cell := bi*len(hsccThresholds) + ti
			st.withOS[b][th] = runs[cell*2]
			st.hwOnly[b][th] = runs[cell*2+1]
		}
	}
	return st, nil
}

// TableVResult is Table V: number of pages migrated per benchmark and
// fetch threshold.
type TableVResult struct {
	Benchmarks []string
	Thresholds []uint32
	Migrated   map[string]map[uint32]uint64
}

// Fig6Result is Figure 6: execution time with OS+HW migration normalized
// to HW-only migration, per threshold.
type Fig6Result struct {
	Benchmarks []string
	Thresholds []uint32
	Norm       map[string]map[uint32]float64
}

// TableVIResult is Table VI: the split of OS migration time between page
// selection and page copy.
type TableVIResult struct {
	Benchmarks []string
	Thresholds []uint32
	SelectPct  map[string]map[uint32]float64
	CopyPct    map[string]map[uint32]float64
}

// HSCCAll regenerates Table V, Figure 6 and Table VI from one study run.
func HSCCAll(opt Options) (*TableVResult, *Fig6Result, *TableVIResult, error) {
	st, err := runHSCCStudy(opt)
	if err != nil {
		return nil, nil, nil, err
	}
	tv := &TableVResult{Benchmarks: st.benchmarks, Thresholds: hsccThresholds, Migrated: map[string]map[uint32]uint64{}}
	f6 := &Fig6Result{Benchmarks: st.benchmarks, Thresholds: hsccThresholds, Norm: map[string]map[uint32]float64{}}
	t6 := &TableVIResult{Benchmarks: st.benchmarks, Thresholds: hsccThresholds,
		SelectPct: map[string]map[uint32]float64{}, CopyPct: map[string]map[uint32]float64{}}
	for _, b := range st.benchmarks {
		tv.Migrated[b] = map[uint32]uint64{}
		f6.Norm[b] = map[uint32]float64{}
		t6.SelectPct[b] = map[uint32]float64{}
		t6.CopyPct[b] = map[uint32]float64{}
		for _, th := range hsccThresholds {
			on, off := st.withOS[b][th], st.hwOnly[b][th]
			tv.Migrated[b][th] = on.pagesMigrated
			if off.execMs > 0 {
				f6.Norm[b][th] = on.execMs / off.execMs
			}
			if total := on.selectionCycle + on.copyCycle; total > 0 {
				t6.SelectPct[b][th] = 100 * float64(on.selectionCycle) / float64(total)
				t6.CopyPct[b][th] = 100 * float64(on.copyCycle) / float64(total)
			}
		}
	}
	return tv, f6, t6, nil
}

// Render prints Table V.
func (r *TableVResult) Render() string {
	var b strings.Builder
	b.WriteString("Table V: number of pages migrated\n")
	b.WriteString("Benchmark   ")
	for _, th := range r.Thresholds {
		fmt.Fprintf(&b, "   Th-%-3d", th)
	}
	b.WriteString("\n")
	for _, bn := range r.Benchmarks {
		fmt.Fprintf(&b, "%-11s ", bn)
		for _, th := range r.Thresholds {
			fmt.Fprintf(&b, "%8d", r.Migrated[bn][th])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CheckShape verifies Table V: migrations fall sharply as the threshold
// rises for every benchmark (paper: Ycsb_mem ~13x fewer at Th-25, ~101x
// fewer at Th-50 vs Th-5).
func (r *TableVResult) CheckShape() error {
	for _, bn := range r.Benchmarks {
		m5, m25, m50 := r.Migrated[bn][5], r.Migrated[bn][25], r.Migrated[bn][50]
		if m5 == 0 {
			return fmt.Errorf("tableV: %s migrated nothing at Th-5", bn)
		}
		if !(m5 >= m25 && m25 >= m50) {
			return fmt.Errorf("tableV: %s migrations not decreasing (%d, %d, %d)", bn, m5, m25, m50)
		}
		if m5 < 2*m50 {
			return fmt.Errorf("tableV: %s Th-5 (%d) not sharply above Th-50 (%d)", bn, m5, m50)
		}
	}
	return nil
}

// Render prints Figure 6's series.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	b.WriteString("Figure 6: OS migration overhead (normalized to HW-only migration)\n")
	b.WriteString("Benchmark   ")
	for _, th := range r.Thresholds {
		fmt.Fprintf(&b, "   Th-%-3d", th)
	}
	b.WriteString("\n")
	for _, bn := range r.Benchmarks {
		fmt.Fprintf(&b, "%-11s ", bn)
		for _, th := range r.Thresholds {
			fmt.Fprintf(&b, "%7.2fx", r.Norm[bn][th])
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CheckShape verifies Figure 6's headline findings: OS activities always
// cost something (normalized > 1 — the insight a user-level simulator like
// ZSim cannot show), and the overhead falls as the threshold rises (fewer
// candidate pages migrate). The paper's secondary observation that
// Gapbs_pr shows the minimum overhead depends on its workload's exact
// locality at their scale and is reported, not asserted (see
// EXPERIMENTS.md).
func (r *Fig6Result) CheckShape() error {
	for _, bn := range r.Benchmarks {
		n5, n25, n50 := r.Norm[bn][5], r.Norm[bn][25], r.Norm[bn][50]
		if n5 <= 1 {
			return fmt.Errorf("fig6: %s shows no OS overhead at Th-5 (%.3f)", bn, n5)
		}
		if !(n5 >= n25 && n25 >= n50) {
			return fmt.Errorf("fig6: %s overhead not falling with threshold (%.3f %.3f %.3f)",
				bn, n5, n25, n50)
		}
	}
	return nil
}

// Render prints Table VI.
func (r *TableVIResult) Render() string {
	var b strings.Builder
	b.WriteString("Table VI: share of OS migration time (page selection vs page copy)\n")
	b.WriteString("Benchmark   Threshold  Selection(%)  Copy(%)\n")
	for _, bn := range r.Benchmarks {
		for _, th := range r.Thresholds {
			fmt.Fprintf(&b, "%-11s  Th-%-6d %12.2f %8.2f\n",
				bn, th, r.SelectPct[bn][th], r.CopyPct[bn][th])
		}
	}
	return b.String()
}

// CheckShape verifies Table VI: page copy dominates OS migration time
// everywhere (paper: 62.65%–98.63%).
func (r *TableVIResult) CheckShape() error {
	for _, bn := range r.Benchmarks {
		for _, th := range r.Thresholds {
			cp := r.CopyPct[bn][th]
			sel := r.SelectPct[bn][th]
			if cp == 0 && sel == 0 {
				continue // no migrations at this threshold in a scaled run
			}
			if cp < 50 {
				return fmt.Errorf("tableVI: %s Th-%d copy share only %.1f%%", bn, th, cp)
			}
		}
	}
	return nil
}
