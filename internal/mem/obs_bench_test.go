package mem

import (
	"testing"

	"kindle/internal/obs"
	"kindle/internal/sim"
)

// TestAccessLineNoAllocTracerDisabled pins the observability contract: the
// instrumented hot path must not allocate when tracing is off (nil tracer,
// the default). NVM writes are excluded — the device model itself appends
// to its drain queue — so the assertion covers DRAM read/write and NVM
// read, the paths a disabled tracer must leave untouched.
func TestAccessLineNoAllocTracerDisabled(t *testing.T) {
	c := NewController(SmallLayout(), DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
	dram := c.Layout.DRAMBase
	nvm := c.Layout.NVMBase
	// Warm up histogram registration and device state.
	c.AccessLine(dram, false)
	c.AccessLine(dram, true)
	c.AccessLine(nvm, false)
	allocs := testing.AllocsPerRun(1000, func() {
		c.AccessLine(dram, false)
		c.AccessLine(dram, true)
		c.AccessLine(nvm, false)
	})
	if allocs != 0 {
		t.Fatalf("AccessLine allocates %v per run with tracing disabled", allocs)
	}
}

// BenchmarkTracerDisabled measures the instrumented AccessLine with no
// tracer installed — the overhead every non-tracing run pays.
func BenchmarkTracerDisabled(b *testing.B) {
	c := NewController(SmallLayout(), DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
	pa := c.Layout.DRAMBase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessLine(pa, i&1 == 1)
	}
}

// BenchmarkTracerEnabled is the paired measurement with all categories on,
// quantifying the cost of emission into the ring buffer.
func BenchmarkTracerEnabled(b *testing.B) {
	clock := sim.NewClock()
	c := NewController(SmallLayout(), DDR4_2400(), PCM(), clock, sim.NewStats())
	c.SetTracer(obs.New(clock, obs.DefaultCapacity, obs.CatAll))
	pa := c.Layout.DRAMBase
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.AccessLine(pa, i&1 == 1)
	}
}
