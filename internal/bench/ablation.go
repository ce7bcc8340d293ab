package bench

import (
	"fmt"
	"strings"

	"kindle/internal/gemos"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
)

// ExtCheckCostRow is one calibration point of the cost-model ablation.
type ExtCheckCostRow struct {
	CheckNanos   float64
	PersistentMs float64
	RebuildMs    float64
	Ratio        float64
}

// ExtCheckCostResult ablates the rebuild scheme's per-page check cost —
// the one calibrated constant behind Fig. 4a — on the sequential
// alloc+access micro-benchmark, making the sensitivity of the headline
// ratio to the calibration explicit (see EXPERIMENTS.md's notes).
type ExtCheckCostResult struct {
	SizeMB int
	Rows   []ExtCheckCostRow
}

// ExtCheckCost runs the ablation at one Fig. 4a point (256 MB scaled).
func ExtCheckCost(opt Options) (*ExtCheckCostResult, error) {
	size := opt.scaleBytes(256 << 20)
	res := &ExtCheckCostResult{SizeMB: int(size >> 20)}
	for _, ns := range []float64{1000, 3000, 10000} {
		row := ExtCheckCostRow{CheckNanos: ns}
		for _, scheme := range []persist.Scheme{persist.Persistent, persist.Rebuild} {
			f, p, err := newPersistenceRun(scheme, opt.scaleInterval(ckptInterval))
			if err != nil {
				return nil, err
			}
			f.Manager().Costs.CheckPerPage = sim.FromNanos(ns)
			start := f.M.Clock.Now()
			if err := seqAllocAccessAblation(f.K, p, size); err != nil {
				return nil, err
			}
			ms := (f.M.Clock.Now() - start).Millis()
			if scheme == persist.Persistent {
				row.PersistentMs = ms
			} else {
				row.RebuildMs = ms
			}
		}
		row.Ratio = row.RebuildMs / row.PersistentMs
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// seqAllocAccessAblation mirrors the Fig. 4a micro-benchmark against a
// kernel handle (keeping the ablation file self-contained).
func seqAllocAccessAblation(k *gemos.Kernel, p *gemos.Process, size uint64) error {
	a, err := k.Mmap(p, 0, size, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		return err
	}
	pages := size / mem.PageSize
	for i := uint64(0); i < pages; i++ {
		if _, err := k.M.Core.Access(a+i*mem.PageSize, true, 8); err != nil {
			return err
		}
		if i%tickEvery == 0 {
			k.Tick()
		}
	}
	k.Tick()
	return k.Munmap(p, a, size)
}

// Render prints the ablation.
func (r *ExtCheckCostResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablation: rebuild-scheme per-page check cost (%dMB alloc+access)\n", r.SizeMB)
	b.WriteString("Check cost  Persistent(ms)  Rebuild(ms)  Ratio\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%7.0fns  %14.1f  %11.1f  %5.1fx\n",
			row.CheckNanos, row.PersistentMs, row.RebuildMs, row.Ratio)
	}
	return b.String()
}

// CheckShape verifies the calibration behaves as designed: persistent is
// insensitive to the knob while rebuild's cost — and thus the Fig. 4a
// ratio — grows monotonically with it.
func (r *ExtCheckCostResult) CheckShape() error {
	for i := 1; i < len(r.Rows); i++ {
		prev, cur := r.Rows[i-1], r.Rows[i]
		if rel := cur.PersistentMs / prev.PersistentMs; rel < 0.95 || rel > 1.05 {
			return fmt.Errorf("extCheckCost: persistent sensitive to rebuild knob (%.2f rel)", rel)
		}
		if cur.RebuildMs <= prev.RebuildMs {
			return fmt.Errorf("extCheckCost: rebuild cost not growing with check cost")
		}
		if cur.Ratio <= prev.Ratio {
			return fmt.Errorf("extCheckCost: ratio not growing with check cost")
		}
	}
	return nil
}
