package gemos

import (
	"fmt"
	"sort"

	"kindle/internal/cpu"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/pt"
	"kindle/internal/sim"
)

// Snapshot mirrors of the kernel state, for machine forks. Everything the
// kernel tracks outside physical memory is plain bookkeeping: the process
// table, per-process accounting, the frame-pool cursors and free lists.
// Page-table contents, the persisted NVM allocation bitmap and all user
// data already ride in the copy-on-write frame store the machine snapshot
// carries, so the kernel mirror is small and O(processes + free lists).
//
// Free lists are captured in LIFO order, not sorted: allocation pops from
// the tail, so reordering them would hand out different frames after a
// fork than the parent would have — byte-identity requires the exact
// stack.

// ProcessState mirrors one process control block.
type ProcessState struct {
	PID          int
	Name         string
	State        ProcState
	Regs         cpu.Registers
	VMAs         []VMA // address order
	Table        pt.State
	MmapCursor   uint64
	Slot         int
	Recovered    bool
	Acct         Acct
	DispatchedAt sim.Cycles
}

// AllocState mirrors the frame allocator's mutable state. Pool bounds and
// the bitmap base are derived from the layout on restore.
type AllocState struct {
	DRAMNext uint64
	DRAMFree []uint64 // LIFO order
	NVMNext  uint64
	NVMFree  []uint64 // LIFO order
	Alloced  []uint64 // ascending (both pools' bitsets, lower pool first)
	DeferNVM bool
	Deferred []uint64 // FIFO order (flushed front to back)
}

// KernelState mirrors the whole kernel: process table (PID-sorted),
// scheduler current, allocator pools. Persistence-layer wiring (PTEHook,
// Meta, OnSpawn/OnExit, slots' backing areas) is not captured here — the
// persistence manager has its own capture/restore that re-wires those
// after RestoreKernel.
type KernelState struct {
	NextPID    int
	CurrentPID int // 0 = none running
	PTKind     mem.Kind
	Procs      []ProcessState
	Alloc      AllocState
}

func (a *FrameAllocator) captureState() AllocState {
	st := AllocState{
		DRAMNext: a.dramNext,
		DRAMFree: append([]uint64(nil), a.dramFree...),
		NVMNext:  a.nvmNext,
		NVMFree:  append([]uint64(nil), a.nvmFree...),
		DeferNVM: a.deferNVM,
		Deferred: append([]uint64(nil), a.deferred...),
	}
	lo, hi := &a.dramUsed, &a.nvmUsed
	if hi.base < lo.base {
		lo, hi = hi, lo
	}
	st.Alloced = hi.appendSet(lo.appendSet(make([]uint64, 0, lo.count()+hi.count())))
	return st
}

// restoreState overlays a capture. Captures may come from snapshot files,
// so each cursor must lie inside its pool and each listed frame in its
// pool below the cursor (deferred frees are NVM frames); otherwise the
// allocator is left as it was and the error names the field.
func (a *FrameAllocator) restoreState(st AllocState) error {
	if st.DRAMNext < a.dramUsed.base || st.DRAMNext > a.dramMax {
		return fmt.Errorf("gemos: restore: Alloc.DRAMNext %#x is outside the DRAM pool [%#x, %#x]", st.DRAMNext, a.dramUsed.base, a.dramMax)
	}
	if st.NVMNext < a.nvmPoolStart || st.NVMNext > a.nvmMax {
		return fmt.Errorf("gemos: restore: Alloc.NVMNext %#x is outside the NVM pool [%#x, %#x]", st.NVMNext, a.nvmPoolStart, a.nvmMax)
	}
	dram := func(pfn uint64) bool { return pfn >= a.dramUsed.base && pfn < st.DRAMNext }
	nvm := func(pfn uint64) bool { return pfn >= a.nvmPoolStart && pfn < st.NVMNext }
	either := func(pfn uint64) bool { return dram(pfn) || nvm(pfn) }
	for _, l := range []struct {
		field  string
		pfns   []uint64
		inPool func(uint64) bool
	}{
		{"DRAMFree", st.DRAMFree, dram},
		{"NVMFree", st.NVMFree, nvm},
		{"Deferred", st.Deferred, nvm},
		{"Alloced", st.Alloced, either},
	} {
		for i, pfn := range l.pfns {
			if !l.inPool(pfn) {
				return fmt.Errorf("gemos: restore: Alloc.%s[%d] = pfn %#x is outside its pool (DRAM frames [%#x, %#x), NVM frames [%#x, %#x))",
					l.field, i, pfn, a.dramUsed.base, st.DRAMNext, a.nvmPoolStart, st.NVMNext)
			}
		}
	}
	a.dramNext = st.DRAMNext
	a.dramFree = append([]uint64(nil), st.DRAMFree...)
	a.nvmNext = st.NVMNext
	a.nvmFree = append([]uint64(nil), st.NVMFree...)
	a.dramUsed.words = a.dramUsed.words[:0]
	a.nvmUsed.words = a.nvmUsed.words[:0]
	for _, pfn := range st.Alloced {
		if dram(pfn) {
			a.dramUsed.set(pfn)
		} else {
			a.nvmUsed.set(pfn)
		}
	}
	a.deferNVM = st.DeferNVM
	a.deferred = append([]uint64(nil), st.Deferred...)
	return nil
}

func captureProcess(p *Process) ProcessState {
	ps := ProcessState{
		PID:          p.PID,
		Name:         p.Name,
		State:        p.State,
		Regs:         p.Regs,
		Table:        p.Table.CaptureState(),
		MmapCursor:   p.mmapCursor,
		Slot:         p.Slot,
		Recovered:    p.Recovered,
		Acct:         p.acct,
		DispatchedAt: p.dispatchedAt,
	}
	vmas := p.AS.All()
	ps.VMAs = make([]VMA, len(vmas))
	for i, v := range vmas {
		ps.VMAs[i] = *v
	}
	return ps
}

// CaptureState copies the kernel's bookkeeping. The current process's live
// register file is in the core (captured with the machine state), so its
// saved Regs here may be stale — RestoreKernel puts the core's registers
// back the same way, so the pair round-trips exactly.
func (k *Kernel) CaptureState() KernelState {
	st := KernelState{
		NextPID: k.nextPID,
		PTKind:  k.PTKind,
		Alloc:   k.Alloc.captureState(),
	}
	if k.current != nil {
		st.CurrentPID = k.current.PID
	}
	st.Procs = make([]ProcessState, 0, len(k.procs))
	for _, p := range k.procs {
		st.Procs = append(st.Procs, captureProcess(p))
	}
	sort.Slice(st.Procs, func(i, j int) bool { return st.Procs[i].PID < st.Procs[j].PID })
	return st
}

// RestoreKernel boots a kernel on a machine restored from a snapshot and
// overlays the captured kernel state: the allocator pools resume exactly
// where the parent's were, every process is rebuilt with its page-table
// handle pointing into the (already restored) frame store, and the PTBR is
// pointed at the current process without the TLB flush a live Switch
// performs — the restored TLB contents already describe that address
// space.
//
// Persistence wiring (PTEHook, Meta, OnSpawn/OnExit, per-table write
// hooks) is deliberately left at boot defaults; persist.RestoreManager
// reinstalls it when a persistence scheme was attached.
func RestoreKernel(m *machine.Machine, st KernelState) (*Kernel, error) {
	k := Boot(m)
	k.nextPID = st.NextPID
	k.PTKind = st.PTKind
	if err := k.Alloc.restoreState(st.Alloc); err != nil {
		return nil, err
	}
	for i := range st.Procs {
		ps := &st.Procs[i]
		p := &Process{
			PID:          ps.PID,
			Name:         ps.Name,
			State:        ps.State,
			Regs:         ps.Regs,
			Table:        pt.FromState(ps.Table, m, k.Alloc, m.Stats),
			mmapCursor:   ps.MmapCursor,
			Slot:         ps.Slot,
			Recovered:    ps.Recovered,
			acct:         ps.Acct,
			dispatchedAt: ps.DispatchedAt,
		}
		for j := range ps.VMAs {
			v := ps.VMAs[j]
			if err := p.AS.Insert(&v); err != nil {
				return nil, fmt.Errorf("gemos: restore pid %d: %w", ps.PID, err)
			}
		}
		k.procs[p.PID] = p
	}
	if st.CurrentPID != 0 {
		p := k.procs[st.CurrentPID]
		if p == nil {
			return nil, fmt.Errorf("gemos: restore: current pid %d not in process table", st.CurrentPID)
		}
		k.current = p
		m.Core.RestoreAddressSpace(p.Table)
	}
	return k, nil
}
