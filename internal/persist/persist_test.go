package persist

import (
	"fmt"
	"testing"
	"time"

	"kindle/internal/cpu"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

const testInterval = 10 * time.Millisecond

func boot(t testing.TB, scheme Scheme) (*machine.Machine, *gemos.Kernel, *Manager, *gemos.Process) {
	t.Helper()
	return bootConfig(t, machine.TestConfig(), scheme)
}

// bootConfig is boot on a machine built from cfg.
func bootConfig(t testing.TB, cfg machine.Config, scheme Scheme) (*machine.Machine, *gemos.Kernel, *Manager, *gemos.Process) {
	t.Helper()
	m := machine.New(cfg)
	k := gemos.Boot(m)
	mgr, err := Attach(k, scheme, sim.FromDuration(testInterval))
	if err != nil {
		t.Fatal(err)
	}
	p, err := k.Spawn("app")
	if err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	return m, k, mgr, p
}

// crashAndRecover reboots the machine and returns the recovered kernel,
// manager and processes.
func crashAndRecover(t testing.TB, m *machine.Machine) (*gemos.Kernel, *Manager, []*gemos.Process) {
	t.Helper()
	m.Crash()
	k2 := gemos.Boot(m)
	mgr2, err := Reattach(k2, sim.FromDuration(testInterval))
	if err != nil {
		t.Fatal(err)
	}
	procs, err := mgr2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return k2, mgr2, procs
}

func TestSlotAssignment(t *testing.T) {
	_, k, mgr, p := boot(t, Rebuild)
	if p.Slot != 0 {
		t.Fatalf("slot = %d", p.Slot)
	}
	p2, _ := k.Spawn("second")
	if p2.Slot != 1 {
		t.Fatalf("second slot = %d", p2.Slot)
	}
	if _, _, ok := mgr.SlotOf(p); !ok {
		t.Fatal("SlotOf failed")
	}
	k.Exit(p2)
	if p2.Slot != -1 {
		t.Fatal("slot not released on exit")
	}
	p3, _ := k.Spawn("third")
	if p3.Slot != 1 {
		t.Fatalf("released slot not reused: %d", p3.Slot)
	}
}

func TestSlotExhaustion(t *testing.T) {
	m, k, _, _ := boot(t, Rebuild)
	for i := 1; i < SlotCount; i++ {
		k.Spawn("filler")
	}
	overflow, err := k.Spawn("overflow")
	if err != nil {
		t.Fatal(err)
	}
	if overflow.Slot != -1 {
		t.Fatal("overflow process got a slot")
	}
	if m.Stats.Get("persist.slot_exhausted") != 1 {
		t.Fatal("exhaustion not counted")
	}
}

func TestRedoLogAccumulatesAndDrains(t *testing.T) {
	_, k, mgr, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 4; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	if mgr.PendingRedoEntries() == 0 {
		t.Fatal("no redo entries after mmap+faults")
	}
	mgr.Checkpoint()
	if mgr.PendingRedoEntries() != 0 {
		t.Fatal("redo log not drained by checkpoint")
	}
}

func TestCheckpointTracksMappings(t *testing.T) {
	_, k, mgr, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 8*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 8; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	mgr.Checkpoint()
	if _, n, _ := mgr.SlotOf(p); n != 8 {
		t.Fatalf("v2p mirror = %d, want 8", n)
	}
	k.Munmap(p, a, 4*4096)
	mgr.Checkpoint()
	if _, n, _ := mgr.SlotOf(p); n != 4 {
		t.Fatalf("v2p mirror after munmap = %d, want 4", n)
	}
}

func testCrashRecoveryRoundTrip(t *testing.T, scheme Scheme) {
	m, k, mgr, p := boot(t, scheme)
	// Map NVM memory, write recognizable data, record registers.
	a, err := k.Mmap(p, 0, 16*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 16; i++ {
		if _, err := m.Core.Access(a+i*4096, true, 8); err != nil {
			t.Fatal(err)
		}
		pa, _ := m.Core.VirtToPhys(a + i*4096)
		m.Ctrl.WriteU64(pa, 0xBEEF0000+i)
	}
	m.Core.Regs.GPR[cpu.RAX] = 0x1234
	m.Core.Regs.RIP = 0x400080
	pid := p.PID
	vmaCount := p.AS.Count()

	mgr.Checkpoint()

	// Post-checkpoint work that must NOT survive (it is torn).
	b, _ := k.Mmap(p, 0, 4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	m.Core.Access(b, true, 8)
	m.Core.Regs.GPR[cpu.RAX] = 0xFFFF

	k2, _, procs := crashAndRecover(t, m)
	if len(procs) != 1 {
		t.Fatalf("recovered %d processes, want 1", len(procs))
	}
	rp := procs[0]
	if rp.PID != pid || rp.Name != "app" || !rp.Recovered {
		t.Fatalf("identity lost: %+v", rp)
	}
	// Registers from the last consistent copy.
	if rp.Regs.GPR[cpu.RAX] != 0x1234 || rp.Regs.RIP != 0x400080 {
		t.Fatalf("registers: rax=%#x rip=%#x", rp.Regs.GPR[cpu.RAX], rp.Regs.RIP)
	}
	// VMA layout from the checkpoint (without the post-checkpoint mmap).
	if rp.AS.Count() != vmaCount {
		t.Fatalf("VMAs = %d, want %d", rp.AS.Count(), vmaCount)
	}
	if rp.AS.Find(a) == nil {
		t.Fatal("NVM VMA lost")
	}
	// Page table: all 16 pages translate and data is intact.
	k2.Switch(rp)
	for i := uint64(0); i < 16; i++ {
		e, ok := rp.Table.Lookup(a + i*4096)
		if !ok {
			t.Fatalf("page %d unmapped after recovery", i)
		}
		pa := mem.FrameBase(e.PFN()) + mem.PhysAddr((a+i*4096)%mem.PageSize)
		if got := m.Ctrl.ReadU64(pa); got != 0xBEEF0000+i {
			t.Fatalf("page %d data = %#x, want %#x", i, got, 0xBEEF0000+i)
		}
		// And the access path works.
		if _, err := m.Core.Access(a+i*4096, false, 8); err != nil {
			t.Fatalf("access after recovery: %v", err)
		}
	}
}

func TestCrashRecoveryRebuild(t *testing.T)    { testCrashRecoveryRoundTrip(t, Rebuild) }
func TestCrashRecoveryPersistent(t *testing.T) { testCrashRecoveryRoundTrip(t, Persistent) }

func TestRecoveryDropsPostCheckpointMappings(t *testing.T) {
	m, k, mgr, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 4; i++ {
		m.Core.Access(a+i*4096, true, 1)
	}
	mgr.Checkpoint()
	// Map more after the checkpoint.
	b, _ := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 4; i++ {
		m.Core.Access(b+i*4096, true, 1)
	}
	_, _, procs := crashAndRecover(t, m)
	rp := procs[0]
	if rp.Table.Mapped() != 4 {
		t.Fatalf("recovered mappings = %d, want 4 (checkpoint state)", rp.Table.Mapped())
	}
	if rp.AS.Find(b) != nil {
		t.Fatal("post-checkpoint VMA survived")
	}
}

func TestPersistentSchemeSurvivesWithoutV2P(t *testing.T) {
	m, k, mgr, p := boot(t, Persistent)
	a, _ := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 4; i++ {
		m.Core.Access(a+i*4096, true, 1)
	}
	// Under the persistent scheme even *post-checkpoint* mappings survive
	// (the table itself is durable), though the VMA metadata reverts to
	// the last checkpoint. Verify the table contents survive a crash that
	// happens right after the faults, with one checkpoint for metadata.
	mgr.Checkpoint()
	_, _, procs := crashAndRecover(t, m)
	rp := procs[0]
	if rp.Table.Mapped() != 4 {
		t.Fatalf("recovered table mappings = %d, want 4", rp.Table.Mapped())
	}
	if rp.Table.Kind() != mem.NVM {
		t.Fatal("recovered table not NVM-hosted")
	}
	if m.Stats.Get("persist.recover_attach") != 1 {
		t.Fatal("persistent recovery did not attach")
	}
	if m.Stats.Get("persist.recover_replay") != 0 {
		t.Fatal("persistent recovery replayed v2p entries")
	}
}

func TestRecoveryWithoutCheckpointYieldsInitialState(t *testing.T) {
	m, k, _, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	m.Core.Access(a, true, 1)
	// No checkpoint: only the slot-init state is durable.
	_, _, procs := crashAndRecover(t, m)
	if len(procs) != 1 {
		t.Fatalf("recovered %d", len(procs))
	}
	rp := procs[0]
	if rp.Table.Mapped() != 0 {
		t.Fatal("mappings survived without checkpoint (rebuild)")
	}
	// The initial state still has the default stack VMA.
	if rp.AS.Count() != 1 {
		t.Fatalf("VMAs = %d, want 1 (stack)", rp.AS.Count())
	}
}

func TestPeriodicCheckpointFires(t *testing.T) {
	m, k, mgr, p := boot(t, Rebuild)
	mgr.Start()
	a, _ := k.Mmap(p, 0, 4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	// Run simulated time past several intervals.
	for i := 0; i < 50; i++ {
		m.Core.Access(a, true, 8)
		m.Clock.Advance(sim.FromDuration(time.Millisecond))
		k.Tick()
	}
	if got := m.Stats.Get("persist.checkpoints"); got < 3 {
		t.Fatalf("checkpoints = %d, want >= 3", got)
	}
	mgr.Stop()
	before := m.Stats.Get("persist.checkpoints")
	m.Clock.Advance(sim.FromDuration(100 * time.Millisecond))
	k.Tick()
	if m.Stats.Get("persist.checkpoints") != before {
		t.Fatal("checkpoint fired after Stop")
	}
}

func TestCheckpointCadenceAfterCompletion(t *testing.T) {
	m, _, mgr, _ := boot(t, Rebuild)
	mgr.Start()
	// Each checkpoint reschedules an interval after completion, so exactly
	// one fires per interval worth of advancing.
	for i := 0; i < 5; i++ {
		m.Clock.Advance(sim.FromDuration(testInterval))
		m.Tick()
	}
	got := m.Stats.Get("persist.checkpoints")
	if got < 4 || got > 5 {
		t.Fatalf("checkpoints = %d, want ~5", got)
	}
}

func TestPersistentSchemeWrapsPTEs(t *testing.T) {
	m, k, _, p := boot(t, Persistent)
	a, _ := k.Mmap(p, 0, 4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	before := m.Stats.Get("persist.pte_wrap")
	m.Core.Access(a, true, 1)
	if m.Stats.Get("persist.pte_wrap") <= before {
		t.Fatal("PTE install not wrapped")
	}
	if p.Table.Kind() != mem.NVM {
		t.Fatal("persistent scheme table not in NVM")
	}
}

func TestRebuildSchemeKeepsTableInDRAM(t *testing.T) {
	m, _, _, p := boot(t, Rebuild)
	if p.Table.Kind() != mem.DRAM {
		t.Fatal("rebuild scheme table not in DRAM")
	}
	if m.Cfg.Layout.KindOf(p.Table.Root()) != mem.DRAM {
		t.Fatal("root not in DRAM")
	}
}

func TestCheckpointCostScalesWithMappedPages(t *testing.T) {
	// The rebuild scheme's checkpoint must get dearer as the NVM-mapped
	// footprint grows — the root cause of Fig. 4a.
	costAt := func(pages uint64) sim.Cycles {
		m, k, mgr, p := boot(t, Rebuild)
		a, _ := k.Mmap(p, 0, pages*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
		for i := uint64(0); i < pages; i++ {
			m.Core.Access(a+i*4096, true, 1)
		}
		mgr.Checkpoint() // absorbs the alloc-phase updates
		start := m.Clock.Now()
		mgr.Checkpoint() // steady-state: pure verification pass
		return m.Clock.Now() - start
	}
	small := costAt(16)
	big := costAt(256)
	if big < small*8 {
		t.Fatalf("checkpoint cost not scaling: 16 pages=%d, 256 pages=%d", small, big)
	}
}

func TestPersistentCheckpointCostFlat(t *testing.T) {
	// Table IV: the persistent scheme's checkpoint does not grow with the
	// mapped footprint (no v2p maintenance).
	costAt := func(pages uint64) sim.Cycles {
		m, k, mgr, p := boot(t, Persistent)
		a, _ := k.Mmap(p, 0, pages*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
		for i := uint64(0); i < pages; i++ {
			m.Core.Access(a+i*4096, true, 1)
		}
		mgr.Checkpoint()
		start := m.Clock.Now()
		mgr.Checkpoint()
		return m.Clock.Now() - start
	}
	small := costAt(16)
	big := costAt(256)
	if big > small*3 {
		t.Fatalf("persistent checkpoint cost grew: 16p=%d 256p=%d", small, big)
	}
}

func TestDoubleCrashRecovery(t *testing.T) {
	// Crash, recover, run more, checkpoint, crash again, recover again.
	m, k, mgr, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 4; i++ {
		m.Core.Access(a+i*4096, true, 1)
	}
	mgr.Checkpoint()

	k2, mgr2, procs := crashAndRecover(t, m)
	rp := procs[0]
	k2.Switch(rp)
	b, _ := k2.Mmap(rp, 0, 2*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 2; i++ {
		if _, err := m.Core.Access(b+i*4096, true, 1); err != nil {
			t.Fatal(err)
		}
	}
	mgr2.Checkpoint()

	_, _, procs2 := crashAndRecover(t, m)
	rp2 := procs2[0]
	if rp2.Table.Mapped() != 6 {
		t.Fatalf("after second recovery mapped = %d, want 6", rp2.Table.Mapped())
	}
	if m.BootGeneration() != 2 {
		t.Fatalf("boot generation = %d", m.BootGeneration())
	}
}

func TestMultiProcessRecovery(t *testing.T) {
	m, k, mgr, p1 := boot(t, Rebuild)
	p2, _ := k.Spawn("two")
	a1, _ := k.Mmap(p1, 0, 2*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	k.Switch(p1)
	m.Core.Access(a1, true, 1)
	k.Switch(p2)
	a2, _ := k.Mmap(p2, 0, 3*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 3; i++ {
		m.Core.Access(a2+i*4096, true, 1)
	}
	mgr.Checkpoint()
	_, _, procs := crashAndRecover(t, m)
	if len(procs) != 2 {
		t.Fatalf("recovered %d processes, want 2", len(procs))
	}
	byName := map[string]*gemos.Process{}
	for _, p := range procs {
		byName[p.Name] = p
	}
	if byName["app"].Table.Mapped() != 1 || byName["two"].Table.Mapped() != 3 {
		t.Fatalf("mapped: app=%d two=%d", byName["app"].Table.Mapped(), byName["two"].Table.Mapped())
	}
}

func TestRecoveredAllocatorConsistency(t *testing.T) {
	// After recovery, the allocator must refuse to hand out frames owned
	// by recovered processes.
	m, k, mgr, p := boot(t, Rebuild)
	a, _ := k.Mmap(p, 0, 8*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	for i := uint64(0); i < 8; i++ {
		m.Core.Access(a+i*4096, true, 1)
	}
	mgr.Checkpoint()
	k2, _, procs := crashAndRecover(t, m)
	rp := procs[0]
	owned := map[uint64]bool{}
	rp.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
		if e.NVM() {
			owned[e.PFN()] = true
		}
		return true
	})
	// Allocate a burst of NVM frames; none may collide with owned frames.
	for i := 0; i < 100; i++ {
		pfn, err := k2.Alloc.AllocFrame(mem.NVM)
		if err != nil {
			break
		}
		if owned[pfn] {
			t.Fatalf("allocator handed out recovered frame %#x", pfn)
		}
	}
}

func TestV2PMirror(t *testing.T) {
	v := newV2PMirror()
	v.set(1, 10)
	v.set(2, 20)
	v.set(1, 11) // update in place
	if v.len() != 2 || v.entries[v.find(1)].pfn != 11 {
		t.Fatalf("mirror state: %+v", v.entries)
	}
	v.remove(1)
	if v.len() != 1 || v.entries[0].vpn != 2 {
		t.Fatalf("after remove: %+v", v.entries)
	}
	v.remove(99) // absent: no-op
	if v.len() != 1 {
		t.Fatal("remove of absent changed length")
	}
}

func TestNameTagRoundTrip(t *testing.T) {
	for _, s := range []string{"", "a", "abcdefgh", "long-name-truncated"} {
		want := s
		if len(want) > 8 {
			want = want[:8]
		}
		if got := tagName(nameTag(s)); got != want {
			t.Fatalf("tag round trip %q -> %q", s, got)
		}
	}
}

func TestGeometry(t *testing.T) {
	g, err := newGeometry(0x1000, 32*mem.MiB)
	if err != nil {
		t.Fatal(err)
	}
	if g.v2pCap == 0 {
		t.Fatal("zero v2p capacity")
	}
	// Slots must not overlap.
	if g.slotAddr(1)-g.slotAddr(0) != mem.PhysAddr(g.slotSize) {
		t.Fatal("slot stride wrong")
	}
	// v2p copies must fit inside the slot.
	end := g.v2pAddr(0, 1) + mem.PhysAddr(g.v2pCap*v2pEntrySize)
	if end > g.slotAddr(1) {
		t.Fatal("v2p copy B overflows slot")
	}
	if _, err := newGeometry(0, 2*mem.MiB); err == nil {
		t.Fatal("tiny area accepted")
	}
}

// BenchmarkCheckpointSteadyState times rebuild-scheme checkpoints with no
// mapping changes: the page-table scan, the verification pass and the
// rewrite and commit of the whole v2p list. pages=32768 is persist-churn's
// 128 MiB NVM area on the Table I machine.
func BenchmarkCheckpointSteadyState(b *testing.B) {
	for _, tc := range []struct {
		pages uint64
		cfg   machine.Config
	}{
		{64, machine.TestConfig()},
		{32768, machine.DefaultConfig()},
	} {
		b.Run(fmt.Sprintf("pages=%d", tc.pages), func(b *testing.B) {
			m, k, mgr, p := bootConfig(b, tc.cfg, Rebuild)
			a, err := k.Mmap(p, 0, tc.pages*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
			if err != nil {
				b.Fatal(err)
			}
			for i := uint64(0); i < tc.pages; i++ {
				m.Core.Access(a+i*4096, true, 1)
			}
			mgr.Checkpoint()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				mgr.Checkpoint()
			}
		})
	}
}

func BenchmarkRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		m, k, mgr, p := boot(b, Rebuild)
		a, _ := k.Mmap(p, 0, 32*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
		for j := uint64(0); j < 32; j++ {
			m.Core.Access(a+j*4096, true, 1)
		}
		mgr.Checkpoint()
		m.Crash()
		k2 := gemos.Boot(m)
		mgr2, _ := Reattach(k2, sim.FromDuration(testInterval))
		b.StartTimer()
		if _, err := mgr2.Recover(); err != nil {
			b.Fatal(err)
		}
	}
}

func TestRedoLogWraps(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := gemos.Boot(m)
	mgr, err := Attach(k, Rebuild, sim.FromDuration(testInterval))
	if err != nil {
		t.Fatal(err)
	}
	p, _ := k.Spawn("wrapper")
	k.Switch(p)
	// Overflow the 2 MiB ring (64 B/entry -> 32768 entries) with VMA
	// change records; the ring must wrap, count it, and keep working.
	for i := 0; i < 33000; i++ {
		mgr.LogVMAChange(p)
	}
	if m.Stats.Get("persist.redo_wrap") == 0 {
		t.Fatal("ring never wrapped")
	}
	mgr.Checkpoint()
	if mgr.PendingRedoEntries() != 0 {
		t.Fatal("drain after wrap failed")
	}
	// Still fully functional afterwards.
	a, _ := k.Mmap(p, 0, 4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if _, err := m.Core.Access(a, true, 1); err != nil {
		t.Fatal(err)
	}
	mgr.Checkpoint()
}

func TestGeometryV2PCapacityProperty(t *testing.T) {
	// For any sane area size, both v2p copies and both VMA tables must fit
	// strictly inside a slot, and slots inside the area.
	for sizeMB := 8; sizeMB <= 256; sizeMB *= 2 {
		g, err := newGeometry(0x10000, uint64(sizeMB)<<20)
		if err != nil {
			t.Fatalf("size %dMB: %v", sizeMB, err)
		}
		endB := g.v2pAddr(SlotCount-1, 1) + mem.PhysAddr(g.v2pCap*v2pEntrySize)
		if endB > g.base+mem.PhysAddr(g.size) {
			t.Fatalf("size %dMB: slot %d v2p copy B overruns the area", sizeMB, SlotCount-1)
		}
		if g.vmaTableAddr(0, 1)+vmaTableSize > g.v2pAddr(0, 0) {
			t.Fatalf("size %dMB: VMA table B collides with v2p A", sizeMB)
		}
	}
}
