package tlb

import "fmt"

// Snapshot mirrors of the TLB state, for machine forks. Geometry comes
// from the machine Config on the restoring side; RestoreState rejects a
// mismatch. The pool indices are not captured: they name nothing outside
// the TLB, so a restore assigns fresh ones. Each set's recency order is
// captured as slot indices, since future evictions depend on it.

// EntryState mirrors one live translation. It has Entry's fields, in
// Entry's order, so the conversions between the two stop compiling if
// either struct changes without the other.
type EntryState struct {
	VPN uint64
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

// LevelState mirrors one TLB level. Both slices are flat sets*ways
// arrays, set si owning [si*ways, (si+1)*ways):
//
//   - Entries holds the set's Lens[si] live translations in slot order,
//     then zeroed slots;
//   - Recency holds the set's slots from most to least recently used, as
//     slot indices in [0, Lens[si]), then -1 in every unused position.
type LevelState struct {
	Entries []EntryState
	Lens    []int32
	Recency []int32
}

// State mirrors the two-level TLB.
type State struct {
	L1, L2 LevelState
}

func (l *level) captureState(pool []Entry) LevelState {
	st := LevelState{
		Entries: make([]EntryState, len(l.words)),
		Lens:    make([]int32, l.sets),
		Recency: make([]int32, len(l.words)),
	}
	for si := range l.lens {
		l.captureSet(st, pool, si)
	}
	return st
}

// captureSet writes set si, every one of its ways, into st, a capture of
// this level's geometry.
func (l *level) captureSet(st LevelState, pool []Entry, si int) {
	b, n := si*l.ways, int(l.lens[si])
	st.Lens[si] = int32(n)
	o := l.recency[si]
	for k := 0; k < l.ways; k++ {
		st.Entries[b+k], st.Recency[b+k] = EntryState{}, -1
		if k < n {
			st.Entries[b+k] = EntryState(pool[l.words[b+k]&idxMask])
			st.Recency[b+k] = int32(o >> (4 * k) & 15)
		}
	}
}

// checkState validates st against the level's geometry without writing
// anything. A VPN can sit only in the set it maps to, so a VPN resident
// twice in one level shows up as a repeat within one set.
func (l *level) checkState(st LevelState) error {
	if len(st.Entries) != len(l.words) || len(st.Lens) != l.sets || len(st.Recency) != len(l.words) {
		return fmt.Errorf("tlb: %s geometry mismatch: %d entries, %d lens and %d recency slots for %d sets of %d ways",
			l.name, len(st.Entries), len(st.Lens), len(st.Recency), l.sets, l.ways)
	}
	named := make([]bool, l.ways)
	for si, n := range st.Lens {
		if n < 0 || int(n) > l.ways {
			return fmt.Errorf("tlb: %s set %d: %d valid ways, outside [0, %d]", l.name, si, n, l.ways)
		}
		b := si * l.ways
		clear(named)
		for k, s := range st.Recency[b : b+l.ways] {
			if (k < int(n)) != (s != -1) {
				return fmt.Errorf("tlb: %s set %d: recency run is not a prefix of %d ways: position %d holds %d",
					l.name, si, n, k, s)
			}
			if s == -1 {
				continue
			}
			if s < 0 || s >= n {
				return fmt.Errorf("tlb: %s set %d: recency position %d names slot %d, outside [0, %d)", l.name, si, k, s, n)
			}
			if named[s] {
				return fmt.Errorf("tlb: %s set %d: recency run names slot %d twice", l.name, si, s)
			}
			named[s] = true
		}
		set := st.Entries[b : b+int(n)]
		for j, e := range set {
			if e.VPN > maxVPN {
				return fmt.Errorf("tlb: %s set %d: slot %d holds VPN %#x, wider than %d bits", l.name, si, j, e.VPN, 64-idxBits)
			}
			if home := l.setIndex(e.VPN); home != si {
				return fmt.Errorf("tlb: %s set %d: slot %d holds VPN %#x, which maps to set %d", l.name, si, j, e.VPN, home)
			}
			for i := range set[:j] {
				if set[i].VPN == e.VPN {
					return fmt.Errorf("tlb: %s set %d: VPN %#x is resident twice, in slots %d and %d", l.name, si, e.VPN, i, j)
				}
			}
		}
	}
	return nil
}

// restoreState overwrites the level from a checked capture, taking a pool
// entry for each live translation.
func (t *TLB) restoreState(l *level, st LevelState) {
	copy(l.lens, st.Lens)
	for si, n := range l.lens {
		b := si * l.ways
		for j := 0; j < int(n); j++ {
			p := t.alloc()
			t.pool[p] = Entry(st.Entries[b+j])
			l.words[b+j] = t.pool[p].VPN<<idxBits | uint64(p)
		}
		var o uint64
		for k, s := range st.Recency[b : b+int(n)] {
			o |= uint64(s) << (4 * k)
		}
		l.recency[si] = o
	}
}

// CaptureState copies the TLB's mutable state.
func (t *TLB) CaptureState() State {
	return State{L1: t.l1.captureState(t.pool), L2: t.l2.captureState(t.pool)}
}

// RestoreState overwrites the TLB from a capture taken on an identically
// configured TLB. It checks the whole capture first and refuses, with an
// error naming the level and the set and with the TLB as it was, a
// capture of another geometry, one without Recency (written before the
// TLB kept recency-ordered sets), a recency run that is not a prefix of
// its set or names a slot out of range or twice, a VPN in a set it does
// not map to, and a VPN resident twice. Entries previously returned by
// Lookup or Insert are invalid afterwards.
func (t *TLB) RestoreState(st State) error {
	if err := t.l1.checkState(st.L1); err != nil {
		return err
	}
	if err := t.l2.checkState(st.L2); err != nil {
		return err
	}
	// The levels are exclusive: no L1 VPN may also sit in its L2 set.
	for s1, n := range st.L1.Lens {
		for _, e := range st.L1.Entries[s1*t.l1.ways : s1*t.l1.ways+int(n)] {
			s2 := t.l2.setIndex(e.VPN)
			b := s2 * t.l2.ways
			for _, e2 := range st.L2.Entries[b : b+int(st.L2.Lens[s2])] {
				if e2.VPN == e.VPN {
					return fmt.Errorf("tlb: %s set %d: VPN %#x is also resident in %s set %d", t.l2.name, s2, e.VPN, t.l1.name, s1)
				}
			}
		}
	}
	t.Reset()
	t.restoreState(&t.l1, st.L1)
	t.restoreState(&t.l2, st.L2)
	return nil
}
