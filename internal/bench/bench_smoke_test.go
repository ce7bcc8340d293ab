package bench

import (
	"strings"
	"testing"
	"time"
)

// smokeOpts shrinks footprints ~16x so the whole experiment suite runs in
// test time while still exercising every mechanism.
var smokeOpts = Options{Scale: 1.0 / 16}

func TestFig4aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig4a(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestFig4bShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig4b(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := TableIII(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIVShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := TableIV(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIShape(t *testing.T) {
	res := TableI()
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestTableIIShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	// SSSP needs a >1M-op window for its per-source relax phases to
	// average out to the published mix; 1/8 scale = 1.25M ops.
	res, err := TableII(Options{Scale: 1.0 / 8})
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := Fig5(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestHSCCShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tv, f6, t6, err := HSCCAll(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + tv.Render() + "\n" + f6.Render() + "\n" + t6.Render())
	if err := tv.CheckShape(); err != nil {
		t.Error(err)
	}
	if err := f6.CheckShape(); err != nil {
		t.Error(err)
	}
	if err := t6.CheckShape(); err != nil {
		t.Error(err)
	}
}

func TestExtConsolidationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtConsolidation(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestExtNVMTechShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtNVMTech(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestExtWriteBufferShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtWriteBuffer(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestExtContextSwitchShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtContextSwitch(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestRenderCSV(t *testing.T) {
	res := &Results{TableI: TableI()}
	res.TableII = &TableIIResult{Rows: []TableIIRow{{Benchmark: "Gapbs_pr", TotalOps: 10, ReadPct: 77, WritePct: 23}}}
	res.Fig4a = &Fig4aResult{Rows: []Fig4aRow{{SizeMB: 64, PersistentMs: 1, RebuildMs: 2}}}
	res.Fig5 = &Fig5Result{
		Intervals: []time.Duration{time.Millisecond},
		Rows:      []Fig5Row{{Benchmark: "Ycsb_mem", Norm: map[time.Duration]float64{time.Millisecond: 1.5}}},
	}
	csv := res.RenderCSV()
	for _, want := range []string{
		"experiment,series,x,y",
		"tableII,Gapbs_pr,read_pct,77",
		"fig4a,rebuild,64MB,2",
		"fig5,Ycsb_mem,1ms,1.5",
	} {
		if !strings.Contains(csv, want) {
			t.Fatalf("CSV missing %q:\n%s", want, csv)
		}
	}
}

func TestExtCheckCostShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtCheckCost(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestCrashSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := CrashSweep(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestExtRecoveryShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ExtRecoveryTime(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}

func TestImageSizesShape(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	res, err := ImageSizes(smokeOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Log("\n" + res.Render())
	if err := res.CheckShape(); err != nil {
		t.Fatal(err)
	}
}
