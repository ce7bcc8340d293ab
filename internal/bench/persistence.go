package bench

import (
	"fmt"
	"strings"
	"time"

	"kindle/internal/mem"
	"kindle/internal/persist"
)

// Options tunes experiment scale. Scale 1.0 reproduces the paper's
// parameters; smaller values shrink footprints/op counts proportionally
// (minimum sizes keep the mechanisms exercised) for quick runs and tests.
type Options struct {
	Scale float64

	// Parallel bounds the worker pool that independent simulation runs
	// fan out over (RunAll's experiments and each experiment's internal
	// grid). Zero or negative means GOMAXPROCS. Each run owns its whole
	// machine (clock, stats, RNG), so parallelism cannot perturb
	// simulated timing: results are byte-identical to a sequential run.
	Parallel int

	// Progress, when non-nil, receives live progress as the run executes:
	// experiment start/finish, grid-task completions (with labels and
	// durations, the ETA basis) and replayed-record counts. Purely
	// observational — attaching it never changes scheduling or results.
	Progress *Tracker

	// images, set only by RunAll, shares each Table II trace image among
	// the suite's experiments.
	images *imageCache
}

func (o Options) scale() float64 {
	if o.Scale <= 0 {
		return 1.0
	}
	return o.Scale
}

// scaleBytes scales a byte size down, keeping page alignment and a 64 KiB
// floor.
func (o Options) scaleBytes(v uint64) uint64 {
	s := uint64(float64(v) * o.scale())
	s &^= mem.PageSize - 1
	if s < 64*1024 {
		s = 64 * 1024
	}
	return s
}

// scaleInterval scales a checkpoint interval with the footprint so reduced
// runs keep the same ratio of work per interval (floor 50 µs).
func (o Options) scaleInterval(v time.Duration) time.Duration {
	s := time.Duration(float64(v) * o.scale())
	if s < 50*time.Microsecond {
		s = 50 * time.Microsecond
	}
	return s
}

// ckptInterval is the fixed checkpoint period of Fig. 4 (10 ms, chosen per
// Aurora).
const ckptInterval = 10 * time.Millisecond

// Fig4aRow is one allocation-size point of Fig. 4a.
type Fig4aRow struct {
	SizeMB       int
	PersistentMs float64
	RebuildMs    float64
}

// Fig4aResult is the Fig. 4a series: end-to-end execution time of the
// sequential allocate-and-access micro-benchmark under periodic context
// checkpointing, for both page-table consistency schemes.
type Fig4aResult struct {
	Rows []Fig4aRow
}

// persistSchemes orders the two page-table consistency schemes for the
// grid fan-outs below (even cell index = persistent, odd = rebuild).
var persistSchemes = [2]persist.Scheme{persist.Persistent, persist.Rebuild}

// Fig4a regenerates Figure 4a (sizes 64–512 MB, interval 10 ms). The
// size x scheme grid fans out over the worker pool; each cell owns a whole
// machine, so results match a sequential run exactly.
func Fig4a(opt Options) (*Fig4aResult, error) {
	sizes := []int{64, 128, 256, 512}
	ms := make([]float64, len(sizes)*2)
	label := func(idx int) string {
		return fmt.Sprintf("fig4a/%dMB/%v", sizes[idx/2], persistSchemes[idx%2])
	}
	err := forEachTask(opt, len(ms), label, func(idx int) error {
		sizeMB, scheme := sizes[idx/2], persistSchemes[idx%2]
		size := opt.scaleBytes(uint64(sizeMB) << 20)
		f, p, err := newPersistenceRun(scheme, opt.scaleInterval(ckptInterval))
		if err != nil {
			return err
		}
		start := f.M.Clock.Now()
		if err := seqAllocAccess(f, p, size); err != nil {
			return fmt.Errorf("bench: fig4a %dMB %v: %w", sizeMB, scheme, err)
		}
		ms[idx] = (f.M.Clock.Now() - start).Millis()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4aResult{}
	for i, sizeMB := range sizes {
		res.Rows = append(res.Rows, Fig4aRow{
			SizeMB: sizeMB, PersistentMs: ms[i*2], RebuildMs: ms[i*2+1],
		})
	}
	return res, nil
}

// Render prints the series in the paper's layout.
func (r *Fig4aResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4a: sequential alloc+access, checkpoint interval 10ms\n")
	b.WriteString("Size      Persistent(ms)  Rebuild(ms)  Rebuild/Persistent\n")
	for _, row := range r.Rows {
		ratio := 0.0
		if row.PersistentMs > 0 {
			ratio = row.RebuildMs / row.PersistentMs
		}
		fmt.Fprintf(&b, "%4dMB    %14.1f  %11.1f  %17.1fx\n", row.SizeMB, row.PersistentMs, row.RebuildMs, ratio)
	}
	return b.String()
}

// CheckShape verifies the published shape: rebuild ≫ persistent at every
// size and the gap grows with size (paper: 2.4× at 64 MB → 74.2× at
// 512 MB; superlinear rebuild growth).
func (r *Fig4aResult) CheckShape() error {
	if len(r.Rows) < 2 {
		return fmt.Errorf("fig4a: too few rows")
	}
	prevRatio := 0.0
	for i, row := range r.Rows {
		if row.RebuildMs <= row.PersistentMs {
			return fmt.Errorf("fig4a: rebuild (%v) not slower than persistent (%v) at %dMB",
				row.RebuildMs, row.PersistentMs, row.SizeMB)
		}
		ratio := row.RebuildMs / row.PersistentMs
		if i > 0 && ratio <= prevRatio {
			return fmt.Errorf("fig4a: ratio not growing with size (%.2f after %.2f at %dMB)",
				ratio, prevRatio, row.SizeMB)
		}
		prevRatio = ratio
	}
	first, last := r.Rows[0], r.Rows[len(r.Rows)-1]
	sizeGrowth := float64(last.SizeMB) / float64(first.SizeMB)
	rebuildGrowth := last.RebuildMs / first.RebuildMs
	if rebuildGrowth <= sizeGrowth {
		return fmt.Errorf("fig4a: rebuild growth %.1fx not superlinear vs size growth %.1fx",
			rebuildGrowth, sizeGrowth)
	}
	return nil
}

// Fig4bRow is one stride point of Fig. 4b.
type Fig4bRow struct {
	Stride       string
	Gap          uint64
	PersistentMs float64
	RebuildMs    float64
}

// Fig4bResult is the Fig. 4b series: stride allocations populate different
// page-table levels; persistent pays per-level consistency, rebuild pays
// checkpoint list maintenance.
type Fig4bResult struct {
	Rows []Fig4bRow
}

// Fig4b regenerates Figure 4b: ten 4 KB pages at 1 GB, 2 MB and 4 KB gaps.
func Fig4b(opt Options) (*Fig4bResult, error) {
	strides := []Fig4bRow{
		{Stride: "1GB", Gap: 1 << 30},
		{Stride: "2MB", Gap: 2 << 20},
		{Stride: "4KB", Gap: 4 << 10},
	}
	const pages = 10
	interval := opt.scaleInterval(ckptInterval)
	// Size the access phase so the run spans a couple of checkpoint
	// intervals (the paper's stride runs are millisecond-scale under a
	// 10 ms checkpoint period): calibrate cycles-per-round on a plain
	// machine, then fix the same round count for both schemes.
	rounds := calibrateStrideRounds(pages, interval)
	ms := make([]float64, len(strides)*2)
	label := func(idx int) string {
		return fmt.Sprintf("fig4b/%s/%v", strides[idx/2].Stride, persistSchemes[idx%2])
	}
	err := forEachTask(opt, len(ms), label, func(idx int) error {
		row, scheme := strides[idx/2], persistSchemes[idx%2]
		f, p, err := newPersistenceRun(scheme, opt.scaleInterval(ckptInterval))
		if err != nil {
			return err
		}
		start := f.M.Clock.Now()
		if err := strideAccess(f, p, row.Gap, pages, rounds); err != nil {
			return fmt.Errorf("bench: fig4b %s %v: %w", row.Stride, scheme, err)
		}
		ms[idx] = (f.M.Clock.Now() - start).Millis()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig4bResult{}
	for i, row := range strides {
		row.PersistentMs, row.RebuildMs = ms[i*2], ms[i*2+1]
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render prints the series.
func (r *Fig4bResult) Render() string {
	var b strings.Builder
	b.WriteString("Figure 4b: stride allocations (10 x 4KB pages), checkpoint interval 10ms\n")
	b.WriteString("Stride    Persistent(ms)  Rebuild(ms)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-8s  %14.3f  %11.3f\n", row.Stride, row.PersistentMs, row.RebuildMs)
	}
	return b.String()
}

// CheckShape verifies the paper's orderings: persistent costs more than
// rebuild at the 1 GB and 2 MB strides (more page-table levels updated),
// and less at 4 KB (minimal page-table modifications).
func (r *Fig4bResult) CheckShape() error {
	if len(r.Rows) != 3 {
		return fmt.Errorf("fig4b: want 3 strides, got %d", len(r.Rows))
	}
	byStride := map[string]Fig4bRow{}
	for _, row := range r.Rows {
		byStride[row.Stride] = row
	}
	for _, s := range []string{"1GB", "2MB"} {
		row := byStride[s]
		if row.PersistentMs <= row.RebuildMs {
			return fmt.Errorf("fig4b: persistent (%v) not dearer than rebuild (%v) at %s stride",
				row.PersistentMs, row.RebuildMs, s)
		}
	}
	if row := byStride["4KB"]; row.PersistentMs >= row.RebuildMs {
		return fmt.Errorf("fig4b: persistent (%v) not cheaper than rebuild (%v) at 4KB stride",
			row.PersistentMs, row.RebuildMs)
	}
	return nil
}

// TableIIIRow is one alloc/free size of Table III.
type TableIIIRow struct {
	SizeMB       int
	PersistentMs float64
	RebuildMs    float64
}

// TableIIIResult is Table III: execution time with periodic checkpointing
// under mmap/munmap churn of different fixed sizes over a 512 MB space.
type TableIIIResult struct {
	TotalMB int
	Rows    []TableIIIRow
}

// TableIII regenerates Table III.
func TableIII(opt Options) (*TableIIIResult, error) {
	total := opt.scaleBytes(512 << 20)
	sizes := []int{64, 128, 256}
	ms := make([]float64, len(sizes)*2)
	label := func(idx int) string {
		return fmt.Sprintf("tableIII/%dMB/%v", sizes[idx/2], persistSchemes[idx%2])
	}
	err := forEachTask(opt, len(ms), label, func(idx int) error {
		sizeMB, scheme := sizes[idx/2], persistSchemes[idx%2]
		chunk := opt.scaleBytes(uint64(sizeMB) << 20)
		if chunk > total/2 {
			chunk = total / 2
		}
		f, p, err := newPersistenceRun(scheme, opt.scaleInterval(ckptInterval))
		if err != nil {
			return err
		}
		start := f.M.Clock.Now()
		if err := churn(f, p, total, chunk); err != nil {
			return fmt.Errorf("bench: tableIII %dMB %v: %w", sizeMB, scheme, err)
		}
		ms[idx] = (f.M.Clock.Now() - start).Millis()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &TableIIIResult{TotalMB: int(total >> 20)}
	for i, sizeMB := range sizes {
		res.Rows = append(res.Rows, TableIIIRow{
			SizeMB: sizeMB, PersistentMs: ms[i*2], RebuildMs: ms[i*2+1],
		})
	}
	return res, nil
}

// Render prints Table III.
func (r *TableIIIResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III: mmap/munmap churn over %dMB, checkpoint interval 10ms\n", r.TotalMB)
	b.WriteString("Alloc/Free Size  Persistent(ms)  Rebuild(ms)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%11dMB    %14.1f  %11.1f\n", row.SizeMB, row.PersistentMs, row.RebuildMs)
	}
	return b.String()
}

// CheckShape verifies Table III's shape: both schemes grow with the churn
// size and persistent stays well below rebuild.
func (r *TableIIIResult) CheckShape() error {
	for i, row := range r.Rows {
		if row.PersistentMs >= row.RebuildMs {
			return fmt.Errorf("tableIII: persistent (%v) not cheaper than rebuild (%v) at %dMB",
				row.PersistentMs, row.RebuildMs, row.SizeMB)
		}
		if i > 0 {
			prev := r.Rows[i-1]
			if row.PersistentMs <= prev.PersistentMs {
				return fmt.Errorf("tableIII: persistent not growing with churn size")
			}
			if row.RebuildMs <= prev.RebuildMs {
				return fmt.Errorf("tableIII: rebuild not growing with churn size")
			}
		}
	}
	return nil
}

// TableIVRow is one (size, interval) cell pair of Table IV.
type TableIVRow struct {
	SizeMB       int
	Interval     time.Duration
	PersistentMs float64
	RebuildMs    float64
}

// TableIVResult is Table IV: influence of the checkpoint interval.
type TableIVResult struct {
	Rows []TableIVRow
}

// TableIV regenerates Table IV: churn+access under 10 ms, 100 ms and 1 s
// checkpoint intervals.
func TableIV(opt Options) (*TableIVResult, error) {
	total := opt.scaleBytes(512 << 20)
	const rounds = 4
	intervals := []time.Duration{10 * time.Millisecond, 100 * time.Millisecond, time.Second}
	sizes := []int{64, 128, 256}
	ms := make([]float64, len(sizes)*len(intervals)*2)
	label := func(idx int) string {
		cell := idx / 2
		return fmt.Sprintf("tableIV/%dMB/%v/%v",
			sizes[cell/len(intervals)], intervals[cell%len(intervals)], persistSchemes[idx%2])
	}
	err := forEachTask(opt, len(ms), label, func(idx int) error {
		cell := idx / 2
		sizeMB, iv := sizes[cell/len(intervals)], intervals[cell%len(intervals)]
		scheme := persistSchemes[idx%2]
		chunk := opt.scaleBytes(uint64(sizeMB) << 20)
		if chunk > total/2 {
			chunk = total / 2
		}
		f, p, err := newPersistenceRun(scheme, opt.scaleInterval(iv))
		if err != nil {
			return err
		}
		start := f.M.Clock.Now()
		if err := churnAccess(f, p, total, chunk, rounds); err != nil {
			return fmt.Errorf("bench: tableIV %dMB %v %v: %w", sizeMB, iv, scheme, err)
		}
		ms[idx] = (f.M.Clock.Now() - start).Millis()
		return nil
	})
	if err != nil {
		return nil, err
	}
	res := &TableIVResult{}
	for si, sizeMB := range sizes {
		for ii, iv := range intervals {
			cell := si*len(intervals) + ii
			res.Rows = append(res.Rows, TableIVRow{
				SizeMB: sizeMB, Interval: iv,
				PersistentMs: ms[cell*2], RebuildMs: ms[cell*2+1],
			})
		}
	}
	return res, nil
}

// Render prints Table IV.
func (r *TableIVResult) Render() string {
	var b strings.Builder
	b.WriteString("Table IV: influence of checkpoint interval (churn + repeated access)\n")
	b.WriteString("Alloc/Free  Interval  Persistent(ms)  Rebuild(ms)\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%8dMB  %8s  %14.1f  %11.1f\n",
			row.SizeMB, row.Interval, row.PersistentMs, row.RebuildMs)
	}
	return b.String()
}

// CheckShape verifies Table IV's shape: persistent is flat across
// intervals; rebuild falls steeply as the interval widens; at 1 s rebuild
// undercuts persistent (the crossover showing the benefit of a DRAM-hosted
// page table once checkpoint-driven maintenance is rare).
func (r *TableIVResult) CheckShape() error {
	bySize := map[int][]TableIVRow{}
	for _, row := range r.Rows {
		bySize[row.SizeMB] = append(bySize[row.SizeMB], row)
	}
	for size, rows := range bySize {
		if len(rows) != 3 {
			return fmt.Errorf("tableIV: %dMB has %d interval rows", size, len(rows))
		}
		r10, r100, r1s := rows[0], rows[1], rows[2]
		// Persistent flat: within 20% across intervals.
		if rel := r1s.PersistentMs / r10.PersistentMs; rel < 0.8 || rel > 1.2 {
			return fmt.Errorf("tableIV: persistent not flat at %dMB (%.2f rel)", size, rel)
		}
		// Rebuild falls with widening interval.
		if !(r10.RebuildMs > r100.RebuildMs && r100.RebuildMs > r1s.RebuildMs) {
			return fmt.Errorf("tableIV: rebuild not falling with interval at %dMB (%v > %v > %v)",
				size, r10.RebuildMs, r100.RebuildMs, r1s.RebuildMs)
		}
		// Meaningful reduction from 10ms to 100ms (paper: ~5x).
		if r10.RebuildMs/r100.RebuildMs < 2 {
			return fmt.Errorf("tableIV: rebuild reduction 10ms→100ms only %.2fx at %dMB",
				r10.RebuildMs/r100.RebuildMs, size)
		}
		// Crossover at 1 s: rebuild beats persistent.
		if r1s.RebuildMs >= r1s.PersistentMs {
			return fmt.Errorf("tableIV: no crossover at 1s for %dMB (rebuild %v >= persistent %v)",
				size, r1s.RebuildMs, r1s.PersistentMs)
		}
	}
	return nil
}
