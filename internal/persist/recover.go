package persist

import (
	"fmt"

	"kindle/internal/gemos"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/pt"
)

// Recover reconstructs every persisted process from the saved states in
// NVM after a crash and reboot. It restores the physical allocator from the
// persisted bitmap, then for each valid slot recreates the execution
// context from the latest consistent copy: registers, VMA layout, and the
// page table — replayed from the virtual→NVM-physical list under the
// rebuild scheme, or re-attached via the surviving root under the
// persistent scheme. Recovered processes are ready to run.
//
// The simulated time of the recovery work (reads of saved state, page-table
// reconstruction) is charged as kernel time, making the schemes' recovery
// trade-off measurable.
func (mgr *Manager) Recover() ([]*gemos.Process, error) {
	m := mgr.M
	k := mgr.K
	m.Core.EnterKernel()
	defer m.Core.ExitKernel()
	startCycles := m.Clock.Now()
	tracing := m.Tracer.Enabled(obs.CatRecovery)

	k.Alloc.RecoverFromBitmap()
	phaseStart := mgr.endPhaseCat(tracing, obs.CatRecovery, "recovery.bitmap", "persist.rec.bitmap_cycles", startCycles, -1)

	var recovered []*gemos.Process
	for slot := 0; slot < SlotCount; slot++ {
		sa := mgr.geo.slotAddr(slot)
		m.AccessTimed(sa, false)
		if m.LoadU64(sa+hdrMagic) != slotMagic || m.LoadU64(sa+hdrValid) != 1 {
			continue
		}
		phaseStart = m.Clock.Now()
		pid := int(m.LoadU64(sa + hdrPID))
		which := int(m.LoadU64(sa + hdrWhich))
		gen := m.LoadU64(sa + hdrGeneration)
		nameLen := m.LoadU64(sa + hdrNameLen)
		if nameLen > 64 {
			nameLen = 64
		}
		nameBuf := make([]byte, nameLen)
		m.Ctrl.Read(sa+hdrName, nameBuf)

		p := &gemos.Process{
			PID:       pid,
			Name:      string(nameBuf),
			State:     gemos.ProcReady,
			Slot:      slot,
			Recovered: true,
		}
		gpr, rip, rflags := mgr.readRegs(slot, which)
		p.Regs.GPR = gpr
		p.Regs.RIP = rip
		p.Regs.RFLAGS = rflags
		cursorOff := mem.PhysAddr(hdrCursorA)
		if which == 1 {
			cursorOff = hdrCursorB
		}
		p.SetMmapCursor(m.LoadU64(sa + cursorOff))
		phaseStart = mgr.endPhaseCat(tracing, obs.CatRecovery, "recovery.regs", "persist.rec.regs_cycles", phaseStart, slot)

		if err := mgr.recoverVMAs(slot, which, p); err != nil {
			return recovered, fmt.Errorf("persist: slot %d: %w", slot, err)
		}
		phaseStart = mgr.endPhaseCat(tracing, obs.CatRecovery, "recovery.vma", "persist.rec.vma_cycles", phaseStart, slot)
		if err := mgr.recoverTable(slot, which, p); err != nil {
			return recovered, fmt.Errorf("persist: slot %d: %w", slot, err)
		}
		mgr.endPhaseCat(tracing, obs.CatRecovery, "recovery.table", "persist.rec.table_cycles", phaseStart, slot)

		mgr.slots[slot] = slotState{used: true, pid: pid, which: which, gen: gen, mirror: mgr.mirrorFromNVM(slot, which)}
		k.Adopt(p)
		recovered = append(recovered, p)
		m.Stats.Inc("persist.recovered")
	}

	reconcileStart := m.Clock.Now()

	// Reconciliation: under the persistent scheme the page table is
	// durable instantly while the VMA layout is checkpoint-consistent, so
	// the recovered table can be *ahead* of the recovered layout. Trim
	// mappings that fall outside the recovered VMAs (their mmap/fault
	// happened after the last checkpoint and rolls back with it).
	if mgr.Scheme == Persistent {
		for _, p := range recovered {
			mgr.reconcileTable(p)
		}
	}

	// Garbage collection: frames the durable bitmap marks used but that no
	// recovered structure references were allocated after the last
	// checkpoint (or belonged to exited processes); sweep them back into
	// the pool.
	n := 0
	for _, p := range recovered {
		n += p.Table.Mapped() + p.Table.TablePageCount()
	}
	referenced := make([]uint64, 0, n)
	for _, p := range recovered {
		p.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
			referenced = append(referenced, e.PFN())
			return true
		})
		if p.Table.Kind() == mem.NVM {
			referenced = append(referenced, p.Table.TablePages()...)
		}
	}
	if n := k.Alloc.ReclaimUnreferenced(referenced); n > 0 {
		m.Stats.Add("persist.gc_reclaimed", uint64(n))
	}
	mgr.endPhaseCat(tracing, obs.CatRecovery, "recovery.reconcile", "persist.rec.reconcile_cycles", reconcileStart, -1)

	total := m.Clock.Now() - startCycles
	mgr.recoveryLat.ObserveCycles(total)
	if tracing {
		m.Tracer.Span(obs.CatRecovery, "recovery", startCycles, total, "procs", uint64(len(recovered)))
	}
	m.Stats.Add("persist.recovery_cycles", uint64(total))
	return recovered, nil
}

// reconcileTable removes recovered page-table mappings not covered by the
// recovered VMA layout (persistent scheme only). The frames are not freed
// here — the GC sweep that follows reclaims anything unreferenced.
func (mgr *Manager) reconcileTable(p *gemos.Process) {
	type orphan struct{ va uint64 }
	var orphans []orphan
	p.Table.ForEachMapped(func(va uint64, e pt.PTE) bool {
		v := p.AS.Find(va)
		if v == nil || (e.NVM() != (v.Kind == mem.NVM)) {
			orphans = append(orphans, orphan{va: va})
		}
		return true
	})
	for _, o := range orphans {
		p.Table.Remove(o.va)
		mgr.M.Stats.Inc("persist.reconcile_unmap")
	}
}

// recoverVMAs deserializes the consistent VMA table into p.
func (mgr *Manager) recoverVMAs(slot, which int, p *gemos.Process) error {
	m := mgr.M
	sa := mgr.geo.slotAddr(slot)
	cnt := mem.PhysAddr(hdrVMACountA)
	if which == 1 {
		cnt = hdrVMACountB
	}
	n := m.LoadU64(sa + cnt)
	if n > MaxVMAs {
		n = MaxVMAs
	}
	base := mgr.geo.vmaTableAddr(slot, which)
	for i := uint64(0); i < n; i++ {
		ea := base + mem.PhysAddr(i*vmaEntrySize)
		m.AccessTimed(ea, false)
		start := m.LoadU64(ea)
		end := m.LoadU64(ea + 8)
		pk := m.LoadU64(ea + 16)
		v := &gemos.VMA{
			Start: start,
			End:   end,
			Prot:  gemos.Prot(pk & 0xFF),
			Kind:  mem.Kind(pk >> 8),
			Name:  tagName(m.LoadU64(ea + 24)),
		}
		if err := p.AS.Insert(v); err != nil {
			return fmt.Errorf("restoring VMA %d: %w", i, err)
		}
	}
	return nil
}

// recoverTable rebuilds or re-attaches the page table for p.
func (mgr *Manager) recoverTable(slot, which int, p *gemos.Process) error {
	m := mgr.M
	k := mgr.K
	sa := mgr.geo.slotAddr(slot)

	if mgr.Scheme == Persistent {
		// The table survived in NVM; recovery only needs to point the
		// PTBR at the first level ("this only requires setting the PTBR").
		root := mem.PhysAddr(m.LoadU64(sa + hdrPTRoot))
		if m.Cfg.Layout.KindOf(root) != mem.NVM {
			return fmt.Errorf("persistent-scheme root %#x not in NVM", root)
		}
		p.Table = pt.Attach(m, k.Alloc, mem.NVM, root, m.Stats)
		p.Table.SetWriteHook(mgr.pteHook(p))
		m.Stats.Inc("persist.recover_attach")
		return nil
	}

	// Rebuild scheme: allocate a fresh DRAM-hosted table and replay the
	// virtual→NVM-physical list. Every entry costs a timed read of the
	// list plus the timed page-table installs.
	tbl, err := pt.New(m, k.Alloc, mem.DRAM, m.Stats)
	if err != nil {
		return err
	}
	p.Table = tbl
	cnt := mem.PhysAddr(hdrV2PCountA)
	if which == 1 {
		cnt = hdrV2PCountB
	}
	n := m.LoadU64(sa + cnt)
	base := mgr.geo.v2pAddr(slot, which)
	for i := uint64(0); i < n; i++ {
		ea := base + mem.PhysAddr(i*v2pEntrySize)
		m.AccessTimed(ea, false)
		vpn := m.LoadU64(ea)
		pfn := m.LoadU64(ea + 8)
		flags := uint64(pt.FlagUser | pt.FlagWritable | pt.FlagNVM)
		if _, _, err := tbl.Install(vpn*mem.PageSize, pfn, flags); err != nil {
			return fmt.Errorf("replaying v2p entry %d: %w", i, err)
		}
		// The replayed frame is owned by this process; the allocator
		// already marks it used (persisted bitmap).
		m.Stats.Inc("persist.recover_replay")
	}
	return nil
}

// mirrorFromNVM reloads the host-side v2p mirror from the consistent copy.
func (mgr *Manager) mirrorFromNVM(slot, which int) *v2pMirror {
	m := mgr.M
	sa := mgr.geo.slotAddr(slot)
	cnt := mem.PhysAddr(hdrV2PCountA)
	if which == 1 {
		cnt = hdrV2PCountB
	}
	n := m.LoadU64(sa + cnt)
	base := mgr.geo.v2pAddr(slot, which)
	mirror := newV2PMirror()
	mirror.entries = make([]v2pEntry, 0, min(n, mgr.geo.v2pCap))
	for i := uint64(0); i < n; i++ {
		ea := base + mem.PhysAddr(i*v2pEntrySize)
		mirror.set(m.LoadU64(ea), m.LoadU64(ea+8))
	}
	return mirror
}
