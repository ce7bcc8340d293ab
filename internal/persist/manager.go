package persist

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

// CostModel exposes the calibration knobs of operations whose per-item cost
// is charged in bulk rather than simulated byte-by-byte (keeping host time
// bounded on 100k-page address spaces). All other costs come from real
// simulated memory operations.
type CostModel struct {
	// CheckPerPage is the per-mapped-NVM-page cost of the rebuild scheme's
	// checkpoint verification pass ("the overhead to check and update
	// virtual to physical address mapping during each checkpoint"): a PTE
	// read, an NVM-resident v2p index probe and the comparison.
	// Default 3 µs, calibrated against the relative costs in the
	// paper's Fig. 4/Table IV (see EXPERIMENTS.md).
	CheckPerPage sim.Cycles
	// TableScanPerPage is the per-page-table-page cost of traversing the
	// process page table during the same pass. Default 1 µs.
	TableScanPerPage sim.Cycles
}

// DefaultCosts returns the calibrated defaults.
func DefaultCosts() CostModel {
	return CostModel{
		CheckPerPage:     sim.FromNanos(3000),
		TableScanPerPage: sim.FromNanos(1000),
	}
}

// v2pEntry is one virtual→NVM-physical mapping.
type v2pEntry struct {
	vpn uint64
	pfn uint64
}

// v2pMirror is the host-side mirror of a slot's mapping list; the NVM copy
// is serialized from it at each checkpoint. The list order decides which
// NVM slot each checkpoint writes, so removal swaps the last entry into
// the gap. The index from vpn to list position is a set of leaves, one per
// 2 MiB of virtual space, reached through a map by vpn>>v2pLeafBits; the
// leaf used last is cached, since faults and munmaps walk runs of pages.
type v2pMirror struct {
	entries []v2pEntry
	leaves  map[uint64]*v2pLeaf
	lastKey uint64
	last    *v2pLeaf // nil until the first lookup
}

// v2pLeafBits sizes an index leaf: 512 vpns, 2 MiB of virtual space.
const v2pLeafBits = 9

// v2pLeaf holds, for each vpn of its region, 1 + the vpn's position in the
// entry list, or 0 when the vpn is absent.
type v2pLeaf [1 << v2pLeafBits]int32

func newV2PMirror() *v2pMirror {
	return &v2pMirror{leaves: make(map[uint64]*v2pLeaf)}
}

// slot returns vpn's index slot, creating its leaf when create is set; it
// returns nil when the leaf is absent and create is not set.
func (v *v2pMirror) slot(vpn uint64, create bool) *int32 {
	key := vpn >> v2pLeafBits
	if v.last == nil || v.lastKey != key {
		l := v.leaves[key]
		if l == nil {
			if !create {
				return nil
			}
			l = new(v2pLeaf)
			v.leaves[key] = l
		}
		v.last, v.lastKey = l, key
	}
	return &v.last[vpn&(1<<v2pLeafBits-1)]
}

// find returns vpn's position in the entry list, or -1 when it is absent.
func (v *v2pMirror) find(vpn uint64) int {
	if s := v.slot(vpn, false); s != nil {
		return int(*s) - 1
	}
	return -1
}

// set inserts or updates vpn→pfn and returns the index of the entry slot
// that was written (the appended slot for an insert, the existing slot for
// an update).
func (v *v2pMirror) set(vpn, pfn uint64) int {
	s := v.slot(vpn, true)
	if *s != 0 {
		i := int(*s) - 1
		v.entries[i].pfn = pfn
		return i
	}
	i := len(v.entries)
	*s = int32(i + 1)
	v.entries = append(v.entries, v2pEntry{vpn: vpn, pfn: pfn})
	return i
}

// remove deletes vpn and returns the index of the entry slot rewritten by
// the swap-with-last compaction, or -1 when no slot was written (vpn absent
// or the removed entry was the last one).
func (v *v2pMirror) remove(vpn uint64) int {
	s := v.slot(vpn, false)
	if s == nil || *s == 0 {
		return -1
	}
	i := int(*s) - 1
	*s = 0
	last := len(v.entries) - 1
	moved := v.entries[last]
	v.entries = v.entries[:last]
	if i == last {
		return -1
	}
	v.entries[i] = moved
	*v.slot(moved.vpn, false) = int32(i + 1)
	return i
}

func (v *v2pMirror) len() int { return len(v.entries) }

// mapChange is a pending (not yet checkpointed) mapping mutation.
type mapChange struct {
	vpn    uint64
	pfn    uint64
	mapped bool
}

// procDirty accumulates metadata changes for one process since its last
// checkpoint.
type procDirty struct {
	vmaDirty bool
	changes  []mapChange // log order; truncated at each checkpoint
}

// settle sorts changes by vpn, keeping log order among equal vpns, and
// compacts them in place to the last change of each vpn: the vpn-sorted,
// last-write-wins set a checkpoint applies.
func settle(changes []mapChange) []mapChange {
	slices.SortStableFunc(changes, func(a, b mapChange) int { return cmp.Compare(a.vpn, b.vpn) })
	out := changes[:0]
	for i, ch := range changes {
		if i+1 < len(changes) && changes[i+1].vpn == ch.vpn {
			continue // a later change of this vpn wins
		}
		out = append(out, ch)
	}
	return out
}

type slotState struct {
	used   bool
	pid    int
	which  int // which copy is consistent (0=A, 1=B)
	gen    uint64
	mirror *v2pMirror
}

// Manager implements process persistence over a gemOS kernel. It is the
// gemos.MetaLogger and owns the checkpoint timer, the saved-state slots and
// the recovery procedure.
type Manager struct {
	K        *gemos.Kernel
	M        *machine.Machine
	Scheme   Scheme
	Interval sim.Cycles
	Costs    CostModel

	geo   geometry
	log   *redoLog
	slots [SlotCount]slotState
	dirty map[int]*procDirty // keyed by pid

	ptLogHead uint64
	ckptEvent *sim.Event
	started   bool

	// v2pBuf is maintainV2P's reused encoding buffer for a v2p list copy.
	v2pBuf []byte

	ckptLat     *sim.Histogram
	recoveryLat *sim.Histogram

	// Hot-path counters: PTE wrapping fires on every page-table store of a
	// persistent process; the v2p pair on every checkpointed mapping.
	pteWraps     *sim.Counter
	v2pUpdates   *sim.Counter
	v2pChecked   *sim.Counter
	kernelCycles *sim.Counter
}

// Attach wires process persistence into k with the given page-table scheme
// and checkpoint interval. It configures the kernel (table hosting kind,
// PTE write wrapping, metadata logging) and initializes the NVM area. Call
// Start to begin periodic checkpointing.
func Attach(k *gemos.Kernel, scheme Scheme, interval sim.Cycles) (*Manager, error) {
	base, size := k.PersistArea()
	geo, err := newGeometry(base, size)
	if err != nil {
		return nil, err
	}
	mgr := &Manager{
		K:        k,
		M:        k.M,
		Scheme:   scheme,
		Interval: interval,
		Costs:    DefaultCosts(),
		geo:      geo,
		log:      newRedoLog(k.M, geo.redoBase, redoLogSize),
		dirty:    make(map[int]*procDirty),

		pteWraps:     k.M.Stats.Counter("persist.pte_wrap"),
		v2pUpdates:   k.M.Stats.Counter("persist.v2p_update"),
		v2pChecked:   k.M.Stats.Counter("persist.v2p_checked"),
		kernelCycles: k.M.Stats.Counter("cpu.kernel_cycles"),
	}
	mgr.configureKernel()

	// Initialize the area header and invalidate all slots (fresh boot).
	m := k.M
	m.StoreU64(base, areaMagic)
	m.StoreU64(base+8, uint64(scheme))
	for i := 0; i < SlotCount; i++ {
		m.StoreU64(geo.slotAddr(i)+hdrMagic, 0)
		m.StoreU64(geo.slotAddr(i)+hdrValid, 0)
		m.CommitRange(geo.slotAddr(i), mem.LineSize)
	}
	m.CommitRange(base, mem.LineSize)
	return mgr, nil
}

// Reattach builds a Manager over an already-initialized NVM area after a
// reboot, without clearing the slots. Use it on the post-crash kernel
// before calling Recover.
func Reattach(k *gemos.Kernel, interval sim.Cycles) (*Manager, error) {
	base, size := k.PersistArea()
	geo, err := newGeometry(base, size)
	if err != nil {
		return nil, err
	}
	if k.M.LoadU64(base) != areaMagic {
		return nil, fmt.Errorf("persist: no valid area header at %#x", base)
	}
	scheme := Scheme(k.M.LoadU64(base + 8))
	if scheme != Rebuild && scheme != Persistent {
		return nil, fmt.Errorf("persist: corrupted area header at %#x: unknown page-table scheme %d",
			base, uint64(scheme))
	}
	mgr := &Manager{
		K:        k,
		M:        k.M,
		Scheme:   scheme,
		Interval: interval,
		Costs:    DefaultCosts(),
		geo:      geo,
		log:      newRedoLog(k.M, geo.redoBase, redoLogSize),
		dirty:    make(map[int]*procDirty),

		pteWraps:     k.M.Stats.Counter("persist.pte_wrap"),
		v2pUpdates:   k.M.Stats.Counter("persist.v2p_update"),
		v2pChecked:   k.M.Stats.Counter("persist.v2p_checked"),
		kernelCycles: k.M.Stats.Counter("cpu.kernel_cycles"),
	}
	mgr.configureKernel()
	return mgr, nil
}

// configureKernel installs the scheme-specific hooks.
func (mgr *Manager) configureKernel() {
	k := mgr.K
	mgr.ckptLat = mgr.M.Stats.Hist("persist.checkpoint_lat")
	mgr.recoveryLat = mgr.M.Stats.Hist("persist.recovery_lat")
	if mgr.Scheme == Persistent {
		k.PTKind = mem.NVM
		k.PTEHook = mgr.pteHook
	} else {
		k.PTKind = mem.DRAM
		k.PTEHook = nil
	}
	k.Meta = mgr
	k.OnSpawn = mgr.onSpawn
	k.OnExit = mgr.onExit
	// NVM frames freed between checkpoints stay reserved until the next
	// consistent-copy flip commits, keeping the durable allocator bitmap
	// from running ahead of the durable process metadata.
	k.Alloc.SetDeferNVMFrees(true)
}

// pteHook wraps every page-table store of a persistent-scheme process in
// the NVM consistency mechanism: append a log record, store the PTE, write
// the line back, fence. This is the per-update price the persistent scheme
// pays so recovery can trust the in-NVM table.
func (mgr *Manager) pteHook(p *gemos.Process) pt.WriteHook {
	m := mgr.M
	return func(pa mem.PhysAddr, v pt.PTE) sim.Cycles {
		// Undo-style ordering (per the NVRAM-consistency primitives the
		// paper builds on): read the old entry, persist the log record,
		// fence, then persist the new entry, fence again.
		la := mgr.geo.ptLogBase + mem.PhysAddr(mgr.ptLogHead%ptLogSize)
		mgr.ptLogHead += mem.LineSize
		lat := m.AccessTimed(pa, false) // old PTE value for the undo record
		m.StoreU64(la, uint64(pa))
		m.StoreU64(la+8, uint64(v))
		lat += m.AccessTimed(la, true)
		lat += m.Core.Clwb(la)
		lat += m.Core.Fence()
		m.StoreU64(pa, uint64(v))
		lat += m.AccessTimed(pa, true)
		lat += m.Core.Clwb(pa)
		lat += m.Core.Fence()
		mgr.pteWraps.Inc()
		return lat
	}
}

// dirtyFor returns (creating) the dirty set of pid.
func (mgr *Manager) dirtyFor(pid int) *procDirty {
	d := mgr.dirty[pid]
	if d == nil {
		d = &procDirty{}
		mgr.dirty[pid] = d
	}
	return d
}

// LogVMAChange implements gemos.MetaLogger.
func (mgr *Manager) LogVMAChange(p *gemos.Process) {
	if p.Slot < 0 {
		return
	}
	mgr.dirtyFor(p.PID).vmaDirty = true
	mgr.log.append(logVMAChange, p.PID, 0, 0)
}

// LogMapping implements gemos.MetaLogger. Only the rebuild scheme needs the
// virtual→NVM-physical list maintained; the persistent scheme's table is
// authoritative in NVM already.
func (mgr *Manager) LogMapping(p *gemos.Process, vpn, pfn uint64, mapped bool) {
	if p.Slot < 0 || mgr.Scheme != Rebuild {
		return
	}
	d := mgr.dirtyFor(p.PID)
	if len(d.changes) == cap(d.changes) {
		// Drop superseded changes before growing, so a long interval of
		// remapping the same pages keeps the log within a few times its
		// set of vpns. Settling part of the log early leaves the set the
		// checkpoint settles to unchanged. The log keeps at least half its
		// room free afterwards, so settles stay rare.
		d.changes = settle(d.changes)
		if len(d.changes) > cap(d.changes)/2 {
			d.changes = slices.Grow(d.changes, len(d.changes))
		}
	}
	d.changes = append(d.changes, mapChange{vpn: vpn, pfn: pfn, mapped: mapped})
	typ := uint64(logMapAdd)
	if !mapped {
		typ = logMapRemove
	}
	mgr.log.append(typ, p.PID, vpn, pfn)
}

// onSpawn assigns a saved-state slot and writes the initial consistent
// context.
func (mgr *Manager) onSpawn(p *gemos.Process) {
	slot := -1
	for i := range mgr.slots {
		if !mgr.slots[i].used {
			slot = i
			break
		}
	}
	if slot < 0 {
		// No slot: the process simply runs unpersisted.
		mgr.M.Stats.Inc("persist.slot_exhausted")
		return
	}
	mgr.slots[slot] = slotState{used: true, pid: p.PID, which: 0, mirror: newV2PMirror()}
	p.Slot = slot

	m := mgr.M
	sa := mgr.geo.slotAddr(slot)
	m.StoreU64(sa+hdrMagic, slotMagic)
	m.StoreU64(sa+hdrPID, uint64(p.PID))
	m.StoreU64(sa+hdrValid, 0)
	m.StoreU64(sa+hdrWhich, 0)
	m.StoreU64(sa+hdrPTRoot, uint64(p.Table.Root()))
	m.StoreU64(sa+hdrGeneration, 0)
	name := p.Name
	if len(name) > 64 {
		name = name[:64]
	}
	m.StoreU64(sa+hdrNameLen, uint64(len(name)))
	m.Ctrl.Write(sa+hdrName, []byte(name))
	mgr.writeRegs(slot, 0, p.Regs.GPR[:], p.Regs.RIP, p.Regs.RFLAGS)
	m.StoreU64(sa+hdrCursorA, p.MmapCursor())
	mgr.writeVMATable(slot, 0, p)
	m.StoreU64(sa+hdrV2PCountA, 0)
	// Durability, in dependency order: copy-A payload and the header page
	// first (valid still 0 — a crash here leaves the slot invisible), and
	// only then the single-line valid flip.
	m.CommitRange(mgr.geo.vmaTableAddr(slot, 0), vmaTableSize)
	m.CommitRange(sa, slotHeaderSize)
	// Timed: header lines + VMA lines.
	for off := mem.PhysAddr(0); off < 0x340; off += mem.LineSize {
		m.AccessTimed(sa+off, true)
		m.Core.Clwb(sa + off)
	}
	m.Core.Fence()
	m.StoreU64(sa+hdrValid, 1)
	m.AccessTimed(sa+hdrValid, true)
	m.Core.Clwb(sa + hdrValid)
	m.Core.Fence()
	m.CommitRange(sa, mem.LineSize)
	m.Stats.Inc("persist.slot_init")
}

// onExit releases the slot.
func (mgr *Manager) onExit(p *gemos.Process) {
	if p.Slot < 0 {
		return
	}
	sa := mgr.geo.slotAddr(p.Slot)
	mgr.M.StoreU64(sa+hdrValid, 0)
	mgr.M.AccessTimed(sa+hdrValid, true)
	mgr.M.Core.Clwb(sa + hdrValid)
	mgr.M.Core.Fence()
	mgr.M.CommitRange(sa, mem.LineSize)
	mgr.slots[p.Slot] = slotState{}
	delete(mgr.dirty, p.PID)
	p.Slot = -1
}

// writeRegs serializes a register file into copy copyIdx of slot (functional).
func (mgr *Manager) writeRegs(slot, copyIdx int, gpr []uint64, rip, rflags uint64) {
	ra := mgr.geo.regsAddr(slot, copyIdx)
	for i, v := range gpr {
		mgr.M.StoreU64(ra+mem.PhysAddr(i*8), v)
	}
	mgr.M.StoreU64(ra+16*8, rip)
	mgr.M.StoreU64(ra+17*8, rflags)
}

// readRegs deserializes copy copyIdx of slot.
func (mgr *Manager) readRegs(slot, copyIdx int) (gpr [16]uint64, rip, rflags uint64) {
	ra := mgr.geo.regsAddr(slot, copyIdx)
	for i := range gpr {
		gpr[i] = mgr.M.LoadU64(ra + mem.PhysAddr(i*8))
	}
	return gpr, mgr.M.LoadU64(ra + 16*8), mgr.M.LoadU64(ra + 17*8)
}

// writeVMATable serializes p's VMAs into copy copyIdx (functional), and
// stores the count in the header field for that copy.
func (mgr *Manager) writeVMATable(slot, copyIdx int, p *gemos.Process) int {
	va := mgr.geo.vmaTableAddr(slot, copyIdx)
	vmas := p.AS.All()
	n := len(vmas)
	if n > MaxVMAs {
		n = MaxVMAs
		mgr.M.Stats.Inc("persist.vma_truncated")
	}
	for i := 0; i < n; i++ {
		v := vmas[i]
		ea := va + mem.PhysAddr(i*vmaEntrySize)
		mgr.M.StoreU64(ea, v.Start)
		mgr.M.StoreU64(ea+8, v.End)
		mgr.M.StoreU64(ea+16, uint64(v.Prot)|uint64(v.Kind)<<8)
		mgr.M.StoreU64(ea+24, nameTag(v.Name))
	}
	cnt := mem.PhysAddr(hdrVMACountA)
	if copyIdx == 1 {
		cnt = hdrVMACountB
	}
	mgr.M.StoreU64(mgr.geo.slotAddr(slot)+cnt, uint64(n))
	return n
}

// nameTag packs up to 8 name bytes for diagnostics.
func nameTag(s string) uint64 {
	var v uint64
	for i := 0; i < len(s) && i < 8; i++ {
		v |= uint64(s[i]) << (8 * i)
	}
	return v
}

func tagName(v uint64) string {
	var b []byte
	for i := 0; i < 8; i++ {
		c := byte(v >> (8 * i))
		if c == 0 {
			break
		}
		b = append(b, c)
	}
	return string(b)
}

// Start schedules the periodic checkpoint. The first checkpoint fires one
// interval from now; each subsequent one is scheduled an interval after the
// previous *completes* (an overrunning checkpoint delays the next rather
// than stacking).
func (mgr *Manager) Start() {
	if mgr.started {
		return
	}
	mgr.started = true
	mgr.schedule()
}

// Stop cancels periodic checkpointing. The event allocation is kept for the
// next Start.
func (mgr *Manager) Stop() {
	mgr.M.Events.Cancel(mgr.ckptEvent)
	mgr.started = false
}

// schedule arms the next checkpoint timer, reusing one Event allocation for
// the manager's lifetime.
func (mgr *Manager) schedule() {
	mgr.scheduleAt(mgr.M.Clock.Now() + mgr.Interval)
}

// scheduleAt arms the checkpoint timer at an explicit deadline (schedule's
// body, shared with the fork path's RearmCheckpoint).
func (mgr *Manager) scheduleAt(when sim.Cycles) {
	if mgr.ckptEvent != nil {
		mgr.M.Events.Reschedule(mgr.ckptEvent, when)
		return
	}
	mgr.ckptEvent = mgr.M.Events.Schedule(when, "persist.checkpoint", func(sim.Cycles) {
		mgr.Checkpoint()
		if mgr.started {
			mgr.schedule()
		}
	})
}

// Checkpoint makes every persisted process's working copy consistent: CPU
// state is logged, redo-log entries are applied to the working copy, the
// rebuild scheme refreshes the virtual→NVM-physical list, and the
// consistent-copy pointer flips. The simulated cost is charged as kernel
// time.
func (mgr *Manager) Checkpoint() {
	m := mgr.M
	start := m.Clock.Now()
	// Counted at entry (the completion counter is persist.checkpoints):
	// a crash mid-checkpoint may already have flipped some slots' durable
	// generation, so the monotonicity bound is checkpoints *started*.
	m.Stats.Inc("persist.checkpoints_started")
	m.Core.EnterKernel()
	defer m.Core.ExitKernel()
	tracing := m.Tracer.Enabled(obs.CatCheckpoint)

	for slot := range mgr.slots {
		st := &mgr.slots[slot]
		if !st.used {
			continue
		}
		p := mgr.K.Process(st.pid)
		if p == nil {
			continue
		}
		target := 1 - st.which
		sa := mgr.geo.slotAddr(slot)
		phaseStart := m.Clock.Now()

		// 1. Log the CPU state ("we first log the CPU state"), then write
		// it into the working copy.
		regs := p.Regs
		if mgr.K.Current() == p {
			regs = m.Core.Regs
		}
		mgr.log.append(logRegs, st.pid, regs.RIP, regs.GPR[0])
		mgr.writeRegs(slot, target, regs.GPR[:], regs.RIP, regs.RFLAGS)
		ra := mgr.geo.regsAddr(slot, target)
		for off := mem.PhysAddr(0); off < regsBytes; off += mem.LineSize {
			m.AccessTimed(ra+off, true)
			m.Core.Clwb(ra + off)
		}
		cursorOff := mem.PhysAddr(hdrCursorA)
		if target == 1 {
			cursorOff = hdrCursorB
		}
		m.StoreU64(sa+cursorOff, p.MmapCursor())
		phaseStart = mgr.endPhase(tracing, "checkpoint.regs", "persist.ckpt.regs_cycles", phaseStart, slot)

		// 2. Apply metadata changes: rewrite the VMA table of the working
		// copy when the layout changed this interval.
		d := mgr.dirty[st.pid]
		nv := mgr.writeVMATable(slot, target, p)
		if d != nil && d.vmaDirty {
			va := mgr.geo.vmaTableAddr(slot, target)
			lines := (nv*vmaEntrySize + mem.LineSize - 1) / mem.LineSize
			for i := 0; i < lines; i++ {
				ea := va + mem.PhysAddr(i*mem.LineSize)
				m.AccessTimed(ea, true)
				m.Core.Clwb(ea)
			}
		}

		phaseStart = mgr.endPhase(tracing, "checkpoint.vma", "persist.ckpt.vma_cycles", phaseStart, slot)

		// 3. Rebuild scheme: maintain the virtual→NVM-physical list.
		if mgr.Scheme == Rebuild {
			mgr.maintainV2P(slot, st, d, target)
		}
		phaseStart = mgr.endPhase(tracing, "checkpoint.v2p", "persist.ckpt.v2p_cycles", phaseStart, slot)

		// 4. Make the working copy durable *before* the flip: VMA table,
		// registers, and the header line holding the copy's cursor and
		// VMA/v2p counts (hdrCursorA..hdrV2PCountB share one 64-byte line
		// at +0x300, distinct from the line holding hdrWhich). Only once
		// all of it is durable does the consistent pointer flip commit
		// (single-line write + clwb + fence = atomic; gen and PTRoot ride
		// on the same line as hdrWhich). A crash between the two fences
		// now lands entirely on one side: either the old copy with its old
		// counts, or the new copy with its new counts.
		m.CommitRange(mgr.geo.vmaTableAddr(slot, target), vmaTableSize)
		m.CommitRange(ra, regsBytes)
		m.AccessTimed(sa+hdrCursorA, true)
		m.Core.Clwb(sa + hdrCursorA)
		m.Core.Fence()
		m.CommitRange(sa+hdrCursorA, mem.LineSize)
		st.gen++
		m.StoreU64(sa+hdrGeneration, st.gen)
		m.StoreU64(sa+hdrPTRoot, uint64(p.Table.Root()))
		m.StoreU64(sa+hdrWhich, uint64(target))
		m.AccessTimed(sa+hdrWhich, true)
		m.Core.Clwb(sa + hdrWhich)
		m.Core.Fence()
		m.CommitRange(sa, mem.LineSize)
		// Safety net only — the flip above must already have made the new
		// copy recoverable; nothing below this line is load-bearing.
		m.CommitRange(sa, slotHeaderSize)
		st.which = target
		mgr.endPhase(tracing, "checkpoint.flip", "persist.ckpt.flip_cycles", phaseStart, slot)

		if d != nil {
			d.vmaDirty = false
			d.changes = d.changes[:0]
		}
	}

	// Apply (and retire) every redo-log entry accumulated this interval,
	// including the just-logged CPU states.
	drainStart := m.Clock.Now()
	mgr.log.drain()
	mgr.endPhase(tracing, "checkpoint.redo_drain", "persist.ckpt.redo_cycles", drainStart, -1)

	// The paper assumes heap/stack data pages are kept consistent in NVM
	// by existing memory-consistency techniques; emulate that assumption
	// by making all pending NVM data durable at the checkpoint boundary
	// (not charged — SSP is the component that *measures* that cost).
	m.Ctrl.Domain().CommitAll()

	// With every slot's consistent copy flipped, deferred NVM frees can
	// take effect: no durable saved state references those frames now.
	mgr.K.Alloc.FlushDeferredFrees()

	total := m.Clock.Now() - start
	mgr.ckptLat.ObserveCycles(total)
	if tracing {
		m.Tracer.Span(obs.CatCheckpoint, "checkpoint", start, total, "gen", uint64(m.BootGeneration()))
	}
	m.Stats.Inc("persist.checkpoints")
	m.Stats.Add("persist.checkpoint_cycles", uint64(total))
}

// endPhase closes one checkpoint/recovery phase that began at phaseStart:
// the elapsed cycles are added to counter, a sub-span named name is emitted
// when tracing, and the new phase start (now) is returned. slot < 0 means
// the phase is not slot-scoped.
func (mgr *Manager) endPhaseCat(tracing bool, cat obs.Category, name, counter string, phaseStart sim.Cycles, slot int) sim.Cycles {
	now := mgr.M.Clock.Now()
	mgr.M.Stats.Add(counter, uint64(now-phaseStart))
	if tracing {
		if slot < 0 {
			mgr.M.Tracer.Span(cat, name, phaseStart, now-phaseStart, "", 0)
		} else {
			mgr.M.Tracer.Span(cat, name, phaseStart, now-phaseStart, "slot", uint64(slot))
		}
	}
	return now
}

func (mgr *Manager) endPhase(tracing bool, name, counter string, phaseStart sim.Cycles, slot int) sim.Cycles {
	return mgr.endPhaseCat(tracing, obs.CatCheckpoint, name, counter, phaseStart, slot)
}

// maintainV2P applies this interval's mapping changes to the slot's list
// and charges the verification pass over all mapped pages.
func (mgr *Manager) maintainV2P(slot int, st *slotState, d *procDirty, target int) {
	m := mgr.M

	// Per-change update: log append happened at mutation time; here the
	// entry is written into the NVM list with write-back + fence so the
	// list is durably consistent entry by entry.
	if d != nil && len(d.changes) > 0 {
		base := mgr.geo.v2pAddr(slot, target)
		for _, ch := range settle(d.changes) {
			var idx int
			if ch.mapped {
				idx = st.mirror.set(ch.vpn, ch.pfn)
			} else {
				idx = st.mirror.remove(ch.vpn)
			}
			mgr.v2pUpdates.Inc()
			// Timed: one entry write in the target copy + clwb + fence,
			// charged at the address of the entry slot actually written
			// (a removal that only shrinks the list writes no slot).
			if idx < 0 {
				continue
			}
			ui := uint64(idx)
			if ui >= mgr.geo.v2pCap {
				ui = mgr.geo.v2pCap - 1
			}
			ea := base + mem.PhysAddr(ui*v2pEntrySize)
			m.AccessTimed(ea, true)
			m.Core.Clwb(ea)
			m.Core.Fence()
		}
	}

	// Traversal of the process page table plus the verification pass over
	// every mapped entry (bulk-charged at the calibrated per-item costs).
	n := uint64(st.mirror.len())
	if p := mgr.K.Process(st.pid); p != nil {
		tp := uint64(p.Table.TablePageCount())
		scan := sim.Cycles(tp) * mgr.Costs.TableScanPerPage
		m.Clock.Advance(scan)
		mgr.kernelCycles.Add(uint64(scan))
	}
	if n > 0 {
		m.Clock.Advance(sim.Cycles(n) * mgr.Costs.CheckPerPage)
		mgr.kernelCycles.Add(n * uint64(mgr.Costs.CheckPerPage))
		mgr.v2pChecked.Add(n)
	}

	// Serialize the mirror into the target copy (functional, one bulk
	// write) and record the count.
	base := mgr.geo.v2pAddr(slot, target)
	if n > mgr.geo.v2pCap {
		n = mgr.geo.v2pCap
		m.Stats.Inc("persist.v2p_truncated")
	}
	buf := slices.Grow(mgr.v2pBuf[:0], int(n)*v2pEntrySize)
	for _, e := range st.mirror.entries[:n] {
		buf = binary.LittleEndian.AppendUint64(buf, e.vpn)
		buf = binary.LittleEndian.AppendUint64(buf, e.pfn)
	}
	mgr.v2pBuf = buf
	m.Ctrl.Write(base, buf)
	m.CommitRange(base, n*v2pEntrySize)
	cnt := mem.PhysAddr(hdrV2PCountA)
	if target == 1 {
		cnt = hdrV2PCountB
	}
	m.StoreU64(mgr.geo.slotAddr(slot)+cnt, n)
}

// PendingRedoEntries exposes the outstanding redo-log depth (tests).
func (mgr *Manager) PendingRedoEntries() uint64 { return mgr.log.pending() }

// SlotOf returns the slot state for a process (tests/diagnostics).
func (mgr *Manager) SlotOf(p *gemos.Process) (gen uint64, mappings int, ok bool) {
	if p.Slot < 0 || !mgr.slots[p.Slot].used {
		return 0, 0, false
	}
	st := &mgr.slots[p.Slot]
	return st.gen, st.mirror.len(), true
}
