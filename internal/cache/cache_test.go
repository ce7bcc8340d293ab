package cache

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"kindle/internal/mem"
	"kindle/internal/sim"
)

func newTestHier(t testing.TB) (*Hierarchy, *mem.Controller, *sim.Clock, *sim.Stats) {
	t.Helper()
	clock := sim.NewClock()
	stats := sim.NewStats()
	ctrl := mem.NewController(mem.SmallLayout(), mem.DDR4_2400(), mem.PCM(), clock, stats)
	h := NewHierarchy(DefaultHierConfig(), ctrl, clock, stats)
	return h, ctrl, clock, stats
}

func TestBadGeometryPanics(t *testing.T) {
	for _, cfg := range []Config{
		{Name: "x", Size: 100, Ways: 3},
		{Name: "x", Size: 32, Ways: 4}, // less than one line: no sets
		{Name: "x", Size: 4 * mem.LineSize},
	} {
		t.Run(fmt.Sprintf("size %d ways %d", cfg.Size, cfg.Ways), func(t *testing.T) {
			defer func() {
				got, _ := recover().(string)
				if !strings.Contains(got, "cache: bad geometry for x") {
					t.Fatalf("panic %q, want the bad-geometry message", got)
				}
			}()
			NewLevel(cfg, sim.NewStats())
		})
	}
}

func TestHitLatencyOrdering(t *testing.T) {
	h, _, _, stats := newTestHier(t)
	missLat := h.Access(0, false) // cold miss to memory
	l1Lat := h.Access(0, false)   // now L1 hit
	if l1Lat >= missLat {
		t.Fatalf("L1 hit (%d) not cheaper than miss (%d)", l1Lat, missLat)
	}
	if l1Lat != DefaultHierConfig().L1.Latency {
		t.Fatalf("L1 hit latency = %d", l1Lat)
	}
	if stats.Get("cache.l1.hit") != 1 || stats.Get("cache.llc.miss") != 1 {
		t.Fatal("hit/miss stats wrong")
	}
}

func TestL2AndLLCHits(t *testing.T) {
	h, _, _, stats := newTestHier(t)
	h.Access(0, false)
	// Evict line 0 from L1 by filling its set (8 ways; same set every
	// 32KB/8 = 4KB stride... set index = (addr/64) % 64 for 32KB 8-way).
	l1Sets := 32 * mem.KiB / mem.LineSize / 8
	for i := 1; i <= 8; i++ {
		h.Access(mem.PhysAddr(i*l1Sets*mem.LineSize), false)
	}
	before := stats.Get("cache.l2.hit")
	h.Access(0, false)
	if stats.Get("cache.l2.hit") != before+1 {
		t.Fatalf("expected L2 hit after L1 eviction (l2.hit=%d)", stats.Get("cache.l2.hit"))
	}
}

func TestDirtyEvictionCommitsNVM(t *testing.T) {
	h, ctrl, _, stats := newTestHier(t)
	nvm := ctrl.Layout.NVMBase
	// Functionally write, then dirty the line in cache.
	ctrl.Write(nvm, []byte{0x5A})
	h.Access(nvm, true)
	if stats.Get("persist.commit") != 0 {
		t.Fatal("committed too early")
	}
	// Force eviction from every level by streaming >2MB of conflicting
	// lines through the hierarchy.
	for i := 1; i < 3*64*1024; i++ {
		h.Access(mem.PhysAddr(i*mem.LineSize), true)
	}
	if h.Resident(nvm) {
		t.Fatal("line survived a 12MB stream through a 2MB LLC")
	}
	if stats.Get("cache.writeback_nvm") == 0 {
		t.Fatal("dirty NVM eviction did not write back")
	}
	if stats.Get("persist.commit") == 0 {
		t.Fatal("dirty NVM eviction did not commit durability")
	}
	ctrl.Crash()
	got := make([]byte, 1)
	ctrl.Read(nvm, got)
	if got[0] != 0x5A {
		t.Fatal("evicted dirty line not durable after crash")
	}
}

func TestClwbMakesDurable(t *testing.T) {
	h, ctrl, _, stats := newTestHier(t)
	nvm := ctrl.Layout.NVMBase + 128
	ctrl.Write(nvm, []byte{7})
	h.Access(nvm, true)
	lat := h.Clwb(nvm)
	if lat <= 2 {
		t.Fatalf("clwb of dirty line too cheap: %d", lat)
	}
	if stats.Get("cache.clwb_dirty") != 1 {
		t.Fatal("clwb_dirty not counted")
	}
	// Line stays resident (clwb does not invalidate).
	if !h.Resident(nvm) {
		t.Fatal("clwb invalidated the line")
	}
	// Second clwb: clean now.
	if lat2 := h.Clwb(nvm); lat2 != 2 {
		t.Fatalf("clwb of clean line = %d, want 2", lat2)
	}
	ctrl.Crash()
	got := make([]byte, 1)
	ctrl.Read(nvm, got)
	if got[0] != 7 {
		t.Fatal("clwb'd data lost on crash")
	}
}

func TestFlushInvalidates(t *testing.T) {
	h, ctrl, _, _ := newTestHier(t)
	nvm := ctrl.Layout.NVMBase
	ctrl.Write(nvm, []byte{9})
	h.Access(nvm, true)
	h.Flush(nvm)
	if h.Resident(nvm) {
		t.Fatal("flush left line resident")
	}
	ctrl.Crash()
	got := make([]byte, 1)
	ctrl.Read(nvm, got)
	if got[0] != 9 {
		t.Fatal("flushed data lost on crash")
	}
	// Flushing an absent line is cheap and safe.
	if lat := h.Flush(nvm + 4096); lat != 2 {
		t.Fatalf("flush of absent line = %d", lat)
	}
}

func TestWritebackMergesIntoLowerLevel(t *testing.T) {
	h, _, _, stats := newTestHier(t)
	// Dirty a line in L1, then evict it from L1 while it is still in L2:
	// the dirty bit must merge into L2, not go to memory.
	h.Access(0, true)
	l1Sets := 32 * mem.KiB / mem.LineSize / 8
	for i := 1; i <= 8; i++ {
		h.Access(mem.PhysAddr(i*l1Sets*mem.LineSize), false)
	}
	if stats.Get("cache.writeback") != 0 {
		t.Fatal("L1 dirty eviction went to memory despite L2 residency")
	}
	// The data must still be considered dirty: stream to evict everything
	// and expect exactly one memory write-back for line 0.
	for i := 1; i < 3*64*1024; i++ {
		h.Access(mem.PhysAddr(i*mem.LineSize), false)
	}
	if stats.Get("cache.writeback") == 0 {
		t.Fatal("merged dirty line never written back")
	}
}

func TestInvalidateLine(t *testing.T) {
	h, _, _, _ := newTestHier(t)
	h.Access(0, true)
	h.InvalidateLine(0)
	if h.Resident(0) {
		t.Fatal("InvalidateLine left line resident")
	}
}

func TestReset(t *testing.T) {
	h, _, _, _ := newTestHier(t)
	for i := 0; i < 100; i++ {
		h.Access(mem.PhysAddr(i*mem.LineSize), true)
	}
	h.Reset()
	for i := 0; i < 100; i++ {
		if h.Resident(mem.PhysAddr(i * mem.LineSize)) {
			t.Fatal("Reset left lines resident")
		}
	}
}

func TestMissObserver(t *testing.T) {
	h, _, _, _ := newTestHier(t)
	var misses []mem.PhysAddr
	h.SetMissObserver(func(pa mem.PhysAddr, write bool) { misses = append(misses, pa) })
	h.Access(0, false)
	h.Access(0, false) // hit: not observed
	h.Access(64, false)
	if len(misses) != 2 || misses[0] != 0 || misses[1] != 64 {
		t.Fatalf("observed misses %v", misses)
	}
	h.SetMissObserver(nil)
	h.Access(128, false)
	if len(misses) != 2 {
		t.Fatal("observer fired after removal")
	}
}

func TestAccessPropertySecondAccessHits(t *testing.T) {
	h, _, _, stats := newTestHier(t)
	f := func(lineIdx uint16, write bool) bool {
		pa := mem.PhysAddr(uint64(lineIdx) * mem.LineSize)
		h.Access(pa, write)
		before := stats.Get("cache.l1.hit")
		h.Access(pa, false)
		return stats.Get("cache.l1.hit") == before+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestProbeDoesNotPerturb(t *testing.T) {
	h, _, _, stats := newTestHier(t)
	h.Access(0, false)
	hits := stats.Get("cache.l1.hit")
	if !h.Resident(0) {
		t.Fatal("Resident false for cached line")
	}
	if stats.Get("cache.l1.hit") != hits {
		t.Fatal("Resident counted as an access")
	}
}

func BenchmarkCacheHit(b *testing.B) {
	h, _, _, _ := newTestHier(b)
	h.Access(0, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Access(0, false)
	}
}

func BenchmarkCacheMissStream(b *testing.B) {
	h, _, _, _ := newTestHier(b)
	for i := 0; i < b.N; i++ {
		h.Access(mem.PhysAddr((i*mem.LineSize)%(32*mem.MiB)), false)
	}
}
