package persist

import (
	"fmt"
	"slices"
	"sort"

	"kindle/internal/gemos"
	"kindle/internal/sim"
)

// Snapshot mirrors of the persistence manager, for machine forks. The NVM
// area itself (slot copies, redo-log ring, PTE undo log) lives in physical
// memory and rides in the copy-on-write frame store; only the host-side
// bookkeeping is mirrored here: slot assignments, the v2p mirrors, dirty
// sets and ring cursors.

// V2PEntryState is one virtual→NVM-physical mapping, in mirror list order.
// Order is load-bearing: checkpoint updates address entries by index and
// removals compact swap-with-last, so a reordered mirror would write
// different NVM slots after a fork than the parent would have.
type V2PEntryState struct {
	VPN, PFN uint64
}

// SlotSnapshot mirrors one saved-state slot's host bookkeeping.
type SlotSnapshot struct {
	Used  bool
	PID   int
	Which int
	Gen   uint64
	V2P   []V2PEntryState
}

// MapChangeState is one pending (un-checkpointed) mapping mutation.
type MapChangeState struct {
	VPN, PFN uint64
	Mapped   bool
}

// DirtyState mirrors one process's accumulated metadata changes.
type DirtyState struct {
	PID      int
	VMADirty bool
	Changes  []MapChangeState // vpn-sorted, the last change of each vpn
}

// ManagerState mirrors the whole manager. The checkpoint timer is captured
// with the machine's pending events ("persist.checkpoint") and re-armed via
// RearmCheckpoint.
type ManagerState struct {
	Scheme    Scheme
	Interval  sim.Cycles
	Costs     CostModel
	PTLogHead uint64
	Started   bool
	LogHead   uint64
	LogLive   uint64
	Slots     []SlotSnapshot // len SlotCount
	Dirty     []DirtyState   // pid-sorted
}

// CaptureState copies the manager's host-side bookkeeping.
func (mgr *Manager) CaptureState() ManagerState {
	st := ManagerState{
		Scheme:    mgr.Scheme,
		Interval:  mgr.Interval,
		Costs:     mgr.Costs,
		PTLogHead: mgr.ptLogHead,
		Started:   mgr.started,
		LogHead:   mgr.log.head,
		LogLive:   mgr.log.live,
		Slots:     make([]SlotSnapshot, SlotCount),
	}
	for i := range mgr.slots {
		s := &mgr.slots[i]
		ss := SlotSnapshot{Used: s.used, PID: s.pid, Which: s.which, Gen: s.gen}
		if s.mirror != nil {
			ss.V2P = make([]V2PEntryState, len(s.mirror.entries))
			for j, e := range s.mirror.entries {
				ss.V2P[j] = V2PEntryState{VPN: e.vpn, PFN: e.pfn}
			}
		}
		st.Slots[i] = ss
	}
	st.Dirty = make([]DirtyState, 0, len(mgr.dirty))
	for pid, d := range mgr.dirty {
		ds := DirtyState{PID: pid, VMADirty: d.vmaDirty}
		changes := settle(slices.Clone(d.changes))
		ds.Changes = make([]MapChangeState, len(changes))
		for i, ch := range changes {
			ds.Changes[i] = MapChangeState{VPN: ch.vpn, PFN: ch.pfn, Mapped: ch.mapped}
		}
		st.Dirty = append(st.Dirty, ds)
	}
	sort.Slice(st.Dirty, func(i, j int) bool { return st.Dirty[i].PID < st.Dirty[j].PID })
	return st
}

// RestoreManager rebuilds a Manager over a kernel restored by
// gemos.RestoreKernel: same construction as Reattach (the NVM area is
// already initialized — it came along in the frame store) but with the
// host bookkeeping overlaid instead of empty, and with each persisted
// process's page-table write hook reinstalled (pt.FromState left them at
// the default). The checkpoint timer is NOT re-armed here — pass
// RearmCheckpoint as the "persist.checkpoint" handler to
// machine.RearmEvents. Captures may come from snapshot files: a slot whose
// V2P list names a VPN twice is refused before the kernel or the machine
// is touched.
func RestoreManager(k *gemos.Kernel, st ManagerState) (*Manager, error) {
	if len(st.Slots) != SlotCount {
		return nil, fmt.Errorf("persist: restore: %d slots captured, want %d", len(st.Slots), SlotCount)
	}
	var slots [SlotCount]slotState
	for i, ss := range st.Slots {
		if !ss.Used {
			continue
		}
		mirror := newV2PMirror()
		for j, e := range ss.V2P {
			if first := mirror.find(e.VPN); first >= 0 {
				return nil, fmt.Errorf("persist: restore: slot %d: V2P lists VPN %#x twice, at entries %d and %d", i, e.VPN, first, j)
			}
			mirror.set(e.VPN, e.PFN)
		}
		slots[i] = slotState{used: true, pid: ss.PID, which: ss.Which, gen: ss.Gen, mirror: mirror}
	}
	base, size := k.PersistArea()
	geo, err := newGeometry(base, size)
	if err != nil {
		return nil, err
	}
	mgr := &Manager{
		K:        k,
		M:        k.M,
		Scheme:   st.Scheme,
		Interval: st.Interval,
		Costs:    st.Costs,
		geo:      geo,
		log:      newRedoLog(k.M, geo.redoBase, redoLogSize),
		slots:    slots,
		dirty:    make(map[int]*procDirty, len(st.Dirty)),

		ptLogHead: st.PTLogHead,
		started:   st.Started,

		pteWraps:     k.M.Stats.Counter("persist.pte_wrap"),
		v2pUpdates:   k.M.Stats.Counter("persist.v2p_update"),
		v2pChecked:   k.M.Stats.Counter("persist.v2p_checked"),
		kernelCycles: k.M.Stats.Counter("cpu.kernel_cycles"),
	}
	mgr.log.head = st.LogHead
	mgr.log.live = st.LogLive
	for _, ds := range st.Dirty {
		d := &procDirty{vmaDirty: ds.VMADirty, changes: make([]mapChange, len(ds.Changes))}
		for j, ch := range ds.Changes {
			d.changes[j] = mapChange{vpn: ch.VPN, pfn: ch.PFN, mapped: ch.Mapped}
		}
		mgr.dirty[ds.PID] = d
	}
	mgr.configureKernel()
	if mgr.Scheme == Persistent {
		for _, p := range k.Processes() {
			p.Table.SetWriteHook(mgr.pteHook(p))
		}
	}
	return mgr, nil
}

// RearmCheckpoint re-arms the periodic checkpoint timer at the exact
// deadline a snapshot captured for its "persist.checkpoint" event, so a
// forked machine's checkpoint fires at the same cycle the parent's would
// have. Subsequent checkpoints self-schedule as usual.
func (mgr *Manager) RearmCheckpoint(when sim.Cycles) {
	mgr.scheduleAt(when)
}
