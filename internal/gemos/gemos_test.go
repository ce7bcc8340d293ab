package gemos

import (
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

func bootTest(t testing.TB) (*Kernel, *Process) {
	t.Helper()
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	p, err := k.Spawn("test")
	if err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	return k, p
}

func TestSpawnAndSwitch(t *testing.T) {
	k, p := bootTest(t)
	if k.Current() != p || p.State != ProcRunning {
		t.Fatal("process not running after switch")
	}
	if p.AS.Count() != 1 || p.AS.All()[0].Name != "[stack]" {
		t.Fatal("default stack VMA missing")
	}
	if k.Process(p.PID) != p {
		t.Fatal("process lookup failed")
	}
	p2, _ := k.Spawn("other")
	k.Switch(p2)
	if p.State != ProcReady || p2.State != ProcRunning {
		t.Fatal("state transitions wrong")
	}
	if len(k.Processes()) != 2 {
		t.Fatal("process list wrong")
	}
}

func TestMmapDRAMAndNVM(t *testing.T) {
	k, p := bootTest(t)
	d, err := k.Mmap(p, 0, 8192, ProtRead|ProtWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	n, err := k.Mmap(p, 0, 4096, ProtRead|ProtWrite, MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	if d == n {
		t.Fatal("overlapping mappings")
	}
	vd, vn := p.AS.Find(d), p.AS.Find(n)
	if vd.Kind != mem.DRAM || vn.Kind != mem.NVM {
		t.Fatalf("kinds: %v %v", vd.Kind, vn.Kind)
	}
	// Store to each; frames must come from the right pools.
	if _, err := k.M.Core.Access(d, true, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := k.M.Core.Access(n, true, 1); err != nil {
		t.Fatal(err)
	}
	ed, _ := p.Table.Lookup(d)
	en, _ := p.Table.Lookup(n)
	if k.M.Cfg.Layout.KindOf(mem.FrameBase(ed.PFN())) != mem.DRAM {
		t.Fatal("DRAM area got non-DRAM frame")
	}
	if k.M.Cfg.Layout.KindOf(mem.FrameBase(en.PFN())) != mem.NVM {
		t.Fatal("NVM area got non-NVM frame")
	}
	if !en.NVM() || ed.NVM() {
		t.Fatal("FlagNVM tagging wrong")
	}
}

func TestListingOneSemantics(t *testing.T) {
	// The paper's Listing 1: two mmaps, one NVM one DRAM, store a byte in
	// each, munmap both.
	k, p := bootTest(t)
	ptr1, err := k.Mmap(p, 0, 4096, ProtWrite|ProtRead, MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	ptr2, err := k.Mmap(p, 0, 4096, ProtWrite|ProtRead, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := k.M.Core.Access(ptr1, true, 1); err != nil {
		t.Fatal("store to NVM:", err)
	}
	if _, err := k.M.Core.Access(ptr2, true, 1); err != nil {
		t.Fatal("store to DRAM:", err)
	}
	if err := k.Munmap(p, ptr1, 4096); err != nil {
		t.Fatal(err)
	}
	if err := k.Munmap(p, ptr2, 4096); err != nil {
		t.Fatal(err)
	}
	if p.Table.Mapped() != 0 {
		t.Fatalf("mappings remain: %d", p.Table.Mapped())
	}
}

func TestSegfaultOutsideVMA(t *testing.T) {
	k, _ := bootTest(t)
	if _, err := k.M.Core.Access(0x100, false, 1); err == nil {
		t.Fatal("access outside any VMA succeeded")
	}
	if k.M.Stats.Get("os.fault_segv") == 0 {
		t.Fatal("segv not counted")
	}
}

func TestWriteToReadOnlyVMA(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 4096, ProtRead, 0)
	if _, err := k.M.Core.Access(a, true, 1); err == nil {
		t.Fatal("write to read-only VMA succeeded")
	}
	if _, err := k.M.Core.Access(a, false, 1); err != nil {
		t.Fatalf("read failed: %v", err)
	}
}

func TestMunmapFreesFrames(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 16*4096, ProtRead|ProtWrite, MapNVM)
	for i := uint64(0); i < 16; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	freeBefore := k.Alloc.FreeNVM()
	if err := k.Munmap(p, a, 16*4096); err != nil {
		t.Fatal(err)
	}
	if k.Alloc.FreeNVM() != freeBefore+16 {
		t.Fatalf("frames not freed: %d -> %d", freeBefore, k.Alloc.FreeNVM())
	}
	// Access after munmap faults.
	if _, err := k.M.Core.Access(a, false, 1); err == nil {
		t.Fatal("access to unmapped range succeeded")
	}
}

func TestMunmapPartialSplitsVMA(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 4*4096, ProtRead|ProtWrite, 0)
	// Unmap the middle two pages.
	if err := k.Munmap(p, a+4096, 2*4096); err != nil {
		t.Fatal(err)
	}
	if p.AS.Find(a) == nil || p.AS.Find(a+3*4096) == nil {
		t.Fatal("ends lost")
	}
	if p.AS.Find(a+4096) != nil || p.AS.Find(a+2*4096) != nil {
		t.Fatal("middle still mapped")
	}
}

func TestMmapReuseAfterMunmap(t *testing.T) {
	// The churn pattern of Table III: munmap then mmap the same range.
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 8*4096, ProtRead|ProtWrite, MapNVM)
	for i := uint64(0); i < 8; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	if err := k.Munmap(p, a, 4*4096); err != nil {
		t.Fatal(err)
	}
	got, err := k.Mmap(p, a, 4*4096, ProtRead|ProtWrite, MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	if got != a {
		t.Fatalf("fixed remap at %#x landed at %#x", a, got)
	}
	// Fresh pages demand-fault again.
	if _, err := k.M.Core.Access(a, true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMprotect(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 2*4096, ProtRead|ProtWrite, 0)
	k.M.Core.Access(a, true, 1)
	if err := k.Mprotect(p, a, 2*4096, ProtRead); err != nil {
		t.Fatal(err)
	}
	if _, err := k.M.Core.Access(a, true, 1); err == nil {
		t.Fatal("write after mprotect(PROT_READ) succeeded")
	}
	if _, err := k.M.Core.Access(a, false, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMremapGrowMoves(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 2*4096, ProtRead|ProtWrite, MapNVM)
	k.M.Core.Access(a, true, 1)
	e, _ := p.Table.Lookup(a)
	oldPFN := e.PFN()
	na, err := k.Mremap(p, a, 2*4096, 4*4096)
	if err != nil {
		t.Fatal(err)
	}
	if na == a {
		t.Fatal("grow did not move (old range still reserved)")
	}
	if p.AS.Find(a) != nil {
		t.Fatal("old VMA survived mremap")
	}
	ne, ok := p.Table.Lookup(na)
	if !ok || ne.PFN() != oldPFN {
		t.Fatal("mapping did not move with mremap")
	}
	// New tail pages demand-fault.
	if _, err := k.M.Core.Access(na+3*4096, true, 1); err != nil {
		t.Fatal(err)
	}
}

func TestMremapShrink(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 4*4096, ProtRead|ProtWrite, 0)
	for i := uint64(0); i < 4; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	na, err := k.Mremap(p, a, 4*4096, 2*4096)
	if err != nil || na != a {
		t.Fatalf("shrink: %v %#x", err, na)
	}
	if p.Table.Mapped() != 2 {
		t.Fatalf("mapped after shrink = %d", p.Table.Mapped())
	}
}

func TestSyscallErrors(t *testing.T) {
	k, p := bootTest(t)
	if _, err := k.Mmap(p, 0, 0, ProtRead, 0); err == nil {
		t.Fatal("mmap(0 length) accepted")
	}
	if _, err := k.Mmap(p, 123, 4096, ProtRead, 0); err == nil {
		t.Fatal("unaligned hint accepted")
	}
	if err := k.Munmap(p, 5, 4096); err == nil {
		t.Fatal("unaligned munmap accepted")
	}
	if _, err := k.Mremap(p, 0x999000, 4096, 8192); err == nil {
		t.Fatal("mremap of unknown VMA accepted")
	}
	a, _ := k.Mmap(p, 0, 4096, ProtRead, 0)
	if _, err := k.Mmap(p, a, 4096, ProtRead, 0); err == nil {
		t.Fatal("fixed overlapping mmap accepted")
	}
}

func TestExitReleasesEverything(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 32*4096, ProtRead|ProtWrite, MapNVM)
	for i := uint64(0); i < 32; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	freeN := k.Alloc.FreeNVM()
	k.Exit(p)
	if k.Alloc.FreeNVM() < freeN+32 {
		t.Fatal("exit did not free NVM frames")
	}
	if k.Process(p.PID) != nil || k.Current() != nil {
		t.Fatal("process table not cleaned")
	}
}

func TestAllocatorPoolsDisjoint(t *testing.T) {
	k, _ := bootTest(t)
	d, _ := k.Alloc.AllocFrame(mem.DRAM)
	n, _ := k.Alloc.AllocFrame(mem.NVM)
	if k.M.Cfg.Layout.KindOf(mem.FrameBase(d)) != mem.DRAM {
		t.Fatal("DRAM pool crossed")
	}
	if k.M.Cfg.Layout.KindOf(mem.FrameBase(n)) != mem.NVM {
		t.Fatal("NVM pool crossed")
	}
	// NVM pool starts above the reserved carve-out.
	reserved := reservedNVMBytes(k.M.Cfg.Layout)
	if mem.FrameBase(n) < k.M.Cfg.Layout.NVMBase+mem.PhysAddr(reserved) {
		t.Fatal("NVM pool overlaps reserved region")
	}
}

func TestAllocatorDoubleFreePanics(t *testing.T) {
	k, _ := bootTest(t)
	pfn, _ := k.Alloc.AllocFrame(mem.DRAM)
	k.Alloc.FreeFrame(pfn)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	k.Alloc.FreeFrame(pfn)
}

func TestAllocatorRecoverFromBitmap(t *testing.T) {
	k, _ := bootTest(t)
	var used []uint64
	for i := 0; i < 10; i++ {
		pfn, err := k.Alloc.AllocFrame(mem.NVM)
		if err != nil {
			t.Fatal(err)
		}
		used = append(used, pfn)
	}
	// Free two in the middle (durably recorded).
	k.Alloc.FreeFrame(used[3])
	k.Alloc.FreeFrame(used[7])
	// The bitmap writes were clwb'd; crash and recover.
	k.M.Crash()
	k.Alloc.RecoverFromBitmap()
	for i, pfn := range used {
		want := i != 3 && i != 7
		if k.Alloc.InUse(pfn) != want {
			t.Fatalf("frame %#x in-use=%v, want %v", pfn, k.Alloc.InUse(pfn), want)
		}
	}
	// The recovered allocator reuses the holes first.
	a, _ := k.Alloc.AllocFrame(mem.NVM)
	b, _ := k.Alloc.AllocFrame(mem.NVM)
	got := map[uint64]bool{a: true, b: true}
	if !got[used[3]] || !got[used[7]] {
		t.Fatalf("holes not reused: got %#x %#x", a, b)
	}
}

func TestVMAFindFree(t *testing.T) {
	var as AddressSpace
	as.Insert(&VMA{Start: 0x10000, End: 0x12000, Prot: ProtRead})
	as.Insert(&VMA{Start: 0x14000, End: 0x16000, Prot: ProtRead})
	if got := as.FindFree(0x10000, 0x2000); got != 0x12000 {
		t.Fatalf("FindFree = %#x, want 0x12000", got)
	}
	if got := as.FindFree(0x10000, 0x3000); got != 0x16000 {
		t.Fatalf("FindFree big = %#x, want 0x16000", got)
	}
}

func TestVMARemoveRangeProperty(t *testing.T) {
	f := func(startPage, lenPages, rmStart, rmLen uint8) bool {
		var as AddressSpace
		s := uint64(startPage) * mem.PageSize
		e := s + (uint64(lenPages)+1)*mem.PageSize
		if err := as.Insert(&VMA{Start: s, End: e, Prot: ProtRead}); err != nil {
			return false
		}
		rs := uint64(rmStart) * mem.PageSize
		re := rs + (uint64(rmLen)+1)*mem.PageSize
		removed := as.RemoveRange(rs, re)
		// Invariant: removed + remaining partition the original area.
		var total uint64
		for _, r := range removed {
			total += r.End - r.Start
		}
		for _, v := range as.All() {
			total += v.Len()
			// Remaining areas never intersect the removed range.
			if v.Start < re && v.End > rs {
				return false
			}
		}
		return total == e-s
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFaultCostCharged(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 4096, ProtRead|ProtWrite, 0)
	before := k.M.Stats.Get("cpu.kernel_cycles")
	k.M.Core.Access(a, true, 1)
	if k.M.Stats.Get("cpu.kernel_cycles") <= before {
		t.Fatal("fault charged no kernel time")
	}
}

func TestPTKindNVMHostsTables(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	k.PTKind = mem.NVM
	p, err := k.Spawn("nvmpt")
	if err != nil {
		t.Fatal(err)
	}
	if p.Table.Kind() != mem.NVM {
		t.Fatal("table not NVM-hosted")
	}
	if m.Cfg.Layout.KindOf(p.Table.Root()) != mem.NVM {
		t.Fatal("root frame not in NVM")
	}
}

func TestPTEHookApplied(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	calls := 0
	k.PTEHook = func(p *Process) pt.WriteHook {
		return func(pa mem.PhysAddr, v pt.PTE) sim.Cycles {
			calls++
			m.StoreU64(pa, uint64(v))
			return 1
		}
	}
	p, _ := k.Spawn("hooked")
	k.Switch(p)
	a, _ := k.Mmap(p, 0, 4096, ProtRead|ProtWrite, MapNVM)
	m.Core.Access(a, true, 1)
	if calls == 0 {
		t.Fatal("PTE hook never fired")
	}
}

func BenchmarkDemandFault(b *testing.B) {
	// Fault in batches and unmap between them so arbitrary b.N never
	// exhausts the small test layout's DRAM pool.
	k, p := bootTest(b)
	const batch = 4096
	a, _ := k.Mmap(p, 0, batch*4096, ProtRead|ProtWrite, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%batch == 0 && i > 0 {
			b.StopTimer()
			k.Munmap(p, a, batch*4096)
			a, _ = k.Mmap(p, a, batch*4096, ProtRead|ProtWrite, 0)
			b.StartTimer()
		}
		if _, err := k.M.Core.Access(a+uint64(i%batch)*4096, true, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMmapMunmapChurn(b *testing.B) {
	k, p := bootTest(b)
	for i := 0; i < b.N; i++ {
		a, _ := k.Mmap(p, 0, 16*4096, ProtRead|ProtWrite, MapNVM)
		k.M.Core.Access(a, true, 1)
		k.Munmap(p, a, 16*4096)
	}
}

func TestSchedulerRoundRobin(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	p1, _ := k.Spawn("a")
	p2, _ := k.Spawn("b")
	s := NewScheduler(k, 1000)
	s.Add(p1)
	s.Add(p2)
	if s.Len() != 2 {
		t.Fatal("queue length")
	}
	first := s.Resched()
	second := s.Resched()
	third := s.Resched()
	if first == second || first != third {
		t.Fatalf("not round robin: %v %v %v", first.PID, second.PID, third.PID)
	}
	if k.Current() != third {
		t.Fatal("Resched did not switch")
	}
}

func TestSchedulerTimerSetsNeedsResched(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	p, _ := k.Spawn("only")
	s := NewScheduler(k, 3000)
	s.Add(p)
	s.Start()
	if s.NeedsResched() {
		t.Fatal("resched flag set before quantum")
	}
	m.Clock.Advance(3000)
	m.Tick()
	if !s.NeedsResched() {
		t.Fatal("quantum expiry not flagged")
	}
	s.Resched()
	if s.NeedsResched() {
		t.Fatal("flag not cleared by Resched")
	}
	s.Stop()
	m.Clock.Advance(10000)
	m.Tick()
	if s.NeedsResched() {
		t.Fatal("timer fired after Stop")
	}
}

func TestSchedulerSkipsZombies(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	p1, _ := k.Spawn("a")
	p2, _ := k.Spawn("b")
	s := NewScheduler(k, 1000)
	s.Add(p1)
	s.Add(p2)
	k.Exit(p2)
	for i := 0; i < 4; i++ {
		if got := s.Resched(); got != p1 {
			t.Fatalf("scheduled zombie or nil: %v", got)
		}
	}
	s.Remove(p1)
	if s.Resched() != nil {
		t.Fatal("empty queue scheduled something")
	}
}

func TestSchedulerRemoveMidQueue(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := Boot(m)
	var ps []*Process
	for i := 0; i < 3; i++ {
		p, _ := k.Spawn("p")
		ps = append(ps, p)
		_ = p
	}
	s := NewScheduler(k, 1000)
	for _, p := range ps {
		s.Add(p)
	}
	s.Resched() // ps[0]
	s.Resched() // ps[1]
	s.Remove(ps[1])
	if s.Len() != 2 {
		t.Fatal("remove failed")
	}
	// Continue cycling without ps[1].
	seen := map[int]bool{}
	for i := 0; i < 4; i++ {
		seen[s.Resched().PID] = true
	}
	if seen[ps[1].PID] {
		t.Fatal("removed process still scheduled")
	}
}

func TestDeferredNVMFrees(t *testing.T) {
	k, p := bootTest(t)
	k.Alloc.SetDeferNVMFrees(true)
	a, _ := k.Mmap(p, 0, 4*4096, ProtRead|ProtWrite, MapNVM)
	for i := uint64(0); i < 4; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	var pfns []uint64
	p.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
		pfns = append(pfns, e.PFN())
		return true
	})
	if err := k.Munmap(p, a, 4*4096); err != nil {
		t.Fatal(err)
	}
	// The frames stay reserved until the flush.
	if k.Alloc.DeferredFrees() != 4 {
		t.Fatalf("deferred = %d, want 4", k.Alloc.DeferredFrees())
	}
	for _, pfn := range pfns {
		if !k.Alloc.InUse(pfn) {
			t.Fatal("deferred frame not reserved")
		}
	}
	if got := k.Alloc.FlushDeferredFrees(); got != 4 {
		t.Fatalf("flushed = %d", got)
	}
	for _, pfn := range pfns {
		if k.Alloc.InUse(pfn) {
			t.Fatal("flushed frame still reserved")
		}
	}
	if k.Alloc.DeferredFrees() != 0 {
		t.Fatal("deferred list not drained")
	}
}

func TestReclaimUnreferenced(t *testing.T) {
	k, _ := bootTest(t)
	a, _ := k.Alloc.AllocFrame(mem.NVM)
	b, _ := k.Alloc.AllocFrame(mem.NVM)
	c, _ := k.Alloc.AllocFrame(mem.NVM)
	n := k.Alloc.ReclaimUnreferenced([]uint64{b})
	if n != 2 {
		t.Fatalf("reclaimed %d, want 2", n)
	}
	if k.Alloc.InUse(a) || !k.Alloc.InUse(b) || k.Alloc.InUse(c) {
		t.Fatal("wrong frames reclaimed")
	}
	// Reclaimed frames are reusable and the bitmap is durably cleared.
	d, err := k.Alloc.AllocFrame(mem.NVM)
	if err != nil {
		t.Fatal(err)
	}
	if d != a && d != c {
		t.Fatalf("reclaimed frame not reused: got %#x", d)
	}
}

func TestKernelAccessors(t *testing.T) {
	k, p := bootTest(t)
	base, size := k.PersistArea()
	if k.M.Cfg.Layout.KindOf(base) != mem.NVM || size == 0 {
		t.Fatal("PersistArea not in NVM")
	}
	if k.M.Cfg.Layout.KindOf(k.BootRecordAddr()) != mem.NVM {
		t.Fatal("boot record not in NVM")
	}
	if k.Alloc.FreeDRAM() == 0 {
		t.Fatal("no free DRAM reported")
	}
	k.Tick() // no events: must be a harmless no-op
	if p.String() == "" || p.State.String() != "running" {
		t.Fatal("process String/state rendering broken")
	}
	if ProcZombie.String() != "zombie" || ProcReady.String() != "ready" {
		t.Fatal("state strings")
	}
}

func TestAdoptPreservesPIDSpace(t *testing.T) {
	k, p := bootTest(t)
	ghost := &Process{PID: 42, Name: "ghost", Slot: -1}
	tbl, err := pt.New(k.M, k.Alloc, mem.DRAM, k.M.Stats)
	if err != nil {
		t.Fatal(err)
	}
	ghost.Table = tbl
	k.Adopt(ghost)
	if k.Process(42) != ghost {
		t.Fatal("adopted process not registered")
	}
	if ghost.MmapCursor() != MmapBase {
		t.Fatal("adopt did not default the mmap cursor")
	}
	ghost.SetMmapCursor(MmapBase + 0x10000)
	if ghost.MmapCursor() != MmapBase+0x10000 {
		t.Fatal("SetMmapCursor ignored valid value")
	}
	ghost.SetMmapCursor(5) // below MmapBase: ignored
	if ghost.MmapCursor() != MmapBase+0x10000 {
		t.Fatal("SetMmapCursor accepted bogus value")
	}
	// New spawns get PIDs above the adopted one.
	q, _ := k.Spawn("after")
	if q.PID <= 42 {
		t.Fatalf("PID %d collides with adopted space", q.PID)
	}
	_ = p
}

func TestVMAHelpers(t *testing.T) {
	v := &VMA{Start: 0x1000, End: 0x5000, Prot: ProtRead | ProtWrite, Kind: mem.NVM, Name: "x"}
	if v.Pages() != 4 || !v.Contains(0x1000) || v.Contains(0x5000) {
		t.Fatal("VMA arithmetic")
	}
	if v.String() == "" {
		t.Fatal("VMA string")
	}
	var as AddressSpace
	as.Insert(v)
	as.Insert(&VMA{Start: 0x8000, End: 0xA000, Prot: ProtRead})
	if as.TotalPages() != 6 {
		t.Fatalf("TotalPages = %d", as.TotalPages())
	}
}

// TestAllocBitsetsFollowCursors: each pool's bitset reaches no further
// than the word holding its bump cursor, InUse follows every alloc and
// free, and captureState lists the allocated frames of both pools in
// ascending order.
func TestAllocBitsetsFollowCursors(t *testing.T) {
	k, _ := bootTest(t)
	a := k.Alloc
	before := a.captureState().Alloced
	var got, freed []uint64
	for i := 0; i < 70; i++ {
		for _, kind := range []mem.Kind{mem.NVM, mem.DRAM} {
			pfn, err := a.AllocFrame(kind)
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, pfn)
		}
	}
	// Free every third frame; the NVM ones stay in use until the
	// deferred flush.
	a.SetDeferNVMFrees(true)
	for i := 0; i < len(got); i += 3 {
		a.FreeFrame(got[i])
		freed = append(freed, got[i])
	}
	for _, pfn := range freed {
		if a.InUse(pfn) != (k.M.Cfg.Layout.KindOf(mem.FrameBase(pfn)) == mem.NVM) {
			t.Fatalf("frame %#x: InUse %v before the deferred flush", pfn, a.InUse(pfn))
		}
	}
	a.FlushDeferredFrees()
	live := append([]uint64(nil), before...)
	for _, pfn := range got {
		if inUse := !slices.Contains(freed, pfn); a.InUse(pfn) != inUse {
			t.Fatalf("frame %#x: InUse %v, want %v", pfn, !inUse, inUse)
		} else if inUse {
			live = append(live, pfn)
		}
	}
	slices.Sort(live)
	for _, b := range []struct {
		name string
		bits *frameBits
		next uint64
	}{{"DRAM", &a.dramUsed, a.dramNext}, {"NVM", &a.nvmUsed, a.nvmNext}} {
		if words, most := len(b.bits.words), int((b.next-b.bits.base+63)/64); words > most {
			t.Fatalf("%s bitset has %d words; its bump cursor %#x needs %d", b.name, words, b.next, most)
		}
	}
	if st := a.captureState(); !slices.Equal(st.Alloced, live) {
		t.Fatalf("Alloced = %#x, want the %d frames in use in ascending order", st.Alloced, len(live))
	}
}

// TestRecoverThenReclaim: after RecoverFromBitmap, ReclaimUnreferenced
// returns exactly the unreferenced NVM pool frames to the pool, in
// ascending order, and keeps the referenced ones (whatever order and
// duplicates the referenced list has).
func TestRecoverThenReclaim(t *testing.T) {
	k, _ := bootTest(t)
	a := k.Alloc
	var nvm []uint64
	for i := 0; i < 150; i++ {
		pfn, err := a.AllocFrame(mem.NVM)
		if err != nil {
			t.Fatal(err)
		}
		nvm = append(nvm, pfn)
	}
	for i := 0; i < len(nvm); i += 7 {
		a.FreeFrame(nvm[i]) // a hole below the highest used frame
	}
	k.M.Ctrl.Domain().CommitAll()
	a.RecoverFromBitmap()
	var referenced, victims []uint64
	for i, pfn := range nvm {
		switch {
		case i%7 == 0:
		case i%5 == 0:
			referenced = append(referenced, pfn, pfn)
		default:
			victims = append(victims, pfn)
		}
	}
	slices.Reverse(referenced)
	referenced = append(referenced, a.dramUsed.base) // a DRAM frame is ignored
	freeBefore := len(a.nvmFree)
	if n := a.ReclaimUnreferenced(referenced); n != len(victims) {
		t.Fatalf("reclaimed %d frames, want %d", n, len(victims))
	}
	if got := a.nvmFree[freeBefore:]; !slices.Equal(got, victims) {
		t.Fatalf("reclaimed %#x, want %#x", got, victims)
	}
	for i, pfn := range nvm {
		if a.InUse(pfn) != (i%7 != 0 && i%5 == 0) {
			t.Fatalf("frame %#x (allocation %d): InUse %v after the sweep", pfn, i, a.InUse(pfn))
		}
	}
}

// TestRestoreKernelRejectsBadAlloc corrupts the allocator mirror of an
// otherwise valid capture. RestoreKernel must refuse a cursor outside its
// pool and a listed frame outside its pool's handed-out range, naming the
// field, and a refused overlay must leave the allocator as it was.
// Accepting a free frame outside the pool hands it out later, and the
// first access to it panics in the memory controller.
func TestRestoreKernelRejectsBadAlloc(t *testing.T) {
	k, p := bootTest(t)
	a, _ := k.Mmap(p, 0, 4*4096, ProtRead|ProtWrite, MapNVM)
	for i := uint64(0); i < 4; i++ {
		k.M.Core.Access(a+i*4096, true, 1)
	}
	pfn, _ := k.Alloc.AllocFrame(mem.NVM)
	k.Alloc.FreeFrame(pfn)
	dpfn, _ := k.Alloc.AllocFrame(mem.DRAM)
	k.Alloc.FreeFrame(dpfn)
	src := k.CaptureState()
	cases := []struct {
		name    string
		corrupt func(st *AllocState)
		want    string
	}{
		{"nvm free far away", func(st *AllocState) { st.NVMFree = append(st.NVMFree, 1<<40) }, "Alloc.NVMFree[1] = pfn 0x10000000000 is outside its pool"},
		{"nvm free at the cursor", func(st *AllocState) { st.NVMFree[0] = st.NVMNext }, "Alloc.NVMFree[0]"},
		{"nvm free in the reserved area", func(st *AllocState) { st.NVMFree[0] = k.Alloc.nvmPoolStart - 1 }, "Alloc.NVMFree[0]"},
		{"dram free in nvm", func(st *AllocState) { st.DRAMFree[0] = st.NVMFree[0] }, "Alloc.DRAMFree[0]"},
		{"deferred dram frame", func(st *AllocState) { st.Deferred = []uint64{st.DRAMFree[0]} }, "Alloc.Deferred[0]"},
		{"alloced past the cursor", func(st *AllocState) { st.Alloced[len(st.Alloced)-1] = st.NVMNext + 5 }, "Alloc.Alloced[" + strconv.Itoa(len(src.Alloc.Alloced)-1) + "]"},
		{"dram cursor past the pool", func(st *AllocState) { st.DRAMNext = k.Alloc.dramMax + 1 }, "Alloc.DRAMNext"},
		{"dram cursor below the pool", func(st *AllocState) { st.DRAMNext = k.Alloc.dramUsed.base - 1 }, "Alloc.DRAMNext"},
		{"nvm cursor past the pool", func(st *AllocState) { st.NVMNext = k.Alloc.nvmMax + 1 }, "Alloc.NVMNext"},
		{"nvm cursor in the reserved area", func(st *AllocState) { st.NVMNext = k.Alloc.nvmPoolStart - 1 }, "Alloc.NVMNext"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := k.CaptureState()
			c.corrupt(&st.Alloc)
			m := machine.New(machine.TestConfig())
			if _, err := RestoreKernel(m, st); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreKernel error %v, want one naming %q", err, c.want)
			}
			dst, _ := bootTest(t)
			before := dst.Alloc.captureState()
			if err := dst.Alloc.restoreState(st.Alloc); err == nil {
				t.Fatal("allocator accepted the corrupt mirror")
			}
			if !reflect.DeepEqual(dst.Alloc.captureState(), before) {
				t.Fatal("refused mirror changed the allocator")
			}
		})
	}
	k2, err := RestoreKernel(machine.New(machine.TestConfig()), src)
	if err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	if !reflect.DeepEqual(k2.Alloc.captureState(), src.Alloc) {
		t.Fatal("restored allocator captures differently from its source")
	}
}
