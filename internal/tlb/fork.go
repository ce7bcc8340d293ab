package tlb

import "fmt"

// Snapshot mirrors of the TLB state, for machine forks. Geometry comes
// from the machine Config on the restoring side; RestoreState rejects a
// mismatch. The unexported lru stamp is exported in the mirror — future
// evictions depend on it, so dropping it would make a fork diverge from
// the machine it was taken from.

// EntryState mirrors one live translation, including its LRU stamp.
type EntryState struct {
	VPN uint64
	LRU uint64
	PFN uint64

	SSPAlt     uint64
	SSPUpdated uint64
	SSPCurrent uint64

	AccessCount  uint32
	CountSpilled bool

	Writable bool
	NVM      bool
	SSPValid bool
}

// LevelState mirrors one TLB level's mutable state.
type LevelState struct {
	Entries []EntryState // flat sets*ways store, invalid slots zeroed
	Lens    []int32
	MRU     []int32
	Clock   uint64
}

// State mirrors the two-level TLB plus its structural generation.
type State struct {
	L1, L2 LevelState
	Gen    uint64
}

func stateOf(e Entry) EntryState {
	return EntryState{
		VPN: e.VPN, LRU: e.lru, PFN: e.PFN,
		SSPAlt: e.SSPAlt, SSPUpdated: e.SSPUpdated, SSPCurrent: e.SSPCurrent,
		AccessCount: e.AccessCount, CountSpilled: e.CountSpilled,
		Writable: e.Writable, NVM: e.NVM, SSPValid: e.SSPValid,
	}
}

func entryOf(s EntryState) Entry {
	return Entry{
		VPN: s.VPN, lru: s.LRU, PFN: s.PFN,
		SSPAlt: s.SSPAlt, SSPUpdated: s.SSPUpdated, SSPCurrent: s.SSPCurrent,
		AccessCount: s.AccessCount, CountSpilled: s.CountSpilled,
		Writable: s.Writable, NVM: s.NVM, SSPValid: s.SSPValid,
	}
}

func (l *level) captureState() LevelState {
	st := LevelState{
		Entries: make([]EntryState, len(l.store)),
		Lens:    append([]int32(nil), l.lens...),
		MRU:     append([]int32(nil), l.mru...),
		Clock:   l.clock,
	}
	// Copy only the valid prefix of each set so stale slots past lens
	// (left behind by swap-remove invalidations) don't leak into the
	// snapshot and make equal TLBs serialize differently.
	for si := range l.lens {
		b := si * l.ways
		for i := 0; i < int(l.lens[si]); i++ {
			st.Entries[b+i] = stateOf(l.store[b+i])
		}
	}
	return st
}

// restoreState checks every set's occupancy and MRU hint before
// overwriting anything, so a corrupt snapshot is refused with the level as
// it was instead of slicing a set out of range on the next lookup.
func (l *level) restoreState(st LevelState) error {
	if len(st.Entries) != len(l.store) || len(st.Lens) != l.sets || len(st.MRU) != l.sets {
		return fmt.Errorf("tlb: %s geometry mismatch: %d/%d entries, %d lens and %d MRU hints for %d sets",
			l.name, len(st.Entries), len(l.store), len(st.Lens), len(st.MRU), l.sets)
	}
	for si, n := range st.Lens {
		if n < 0 || int(n) > l.ways {
			return fmt.Errorf("tlb: %s set %d: %d valid ways, outside [0, %d]", l.name, si, n, l.ways)
		}
		if m := st.MRU[si]; m < 0 || int(m) >= l.ways {
			return fmt.Errorf("tlb: %s set %d: MRU way %d, outside [0, %d)", l.name, si, m, l.ways)
		}
	}
	for i := range l.store {
		l.store[i] = entryOf(st.Entries[i])
	}
	copy(l.lens, st.Lens)
	copy(l.mru, st.MRU)
	l.clock = st.Clock
	return nil
}

// CaptureState copies the TLB's mutable state.
func (t *TLB) CaptureState() State {
	return State{L1: t.l1.captureState(), L2: t.l2.captureState(), Gen: t.gen}
}

// RestoreState overwrites the TLB from a capture taken on an identically
// configured TLB. Any pointers previously returned by Lookup are invalid
// afterwards (gen is restored, not advanced, so the core's translation
// cache must be cleared separately — cpu.Core.RestoreState does).
func (t *TLB) RestoreState(st State) error {
	if err := t.l1.restoreState(st.L1); err != nil {
		return err
	}
	if err := t.l2.restoreState(st.L2); err != nil {
		return err
	}
	t.gen = st.Gen
	return nil
}
