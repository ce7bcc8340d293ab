package cache

import (
	"fmt"

	"kindle/internal/mem"
)

// Snapshot mirrors of the cache tag state, for machine forks. The mirrors
// are plain data (gob-encodable); geometry (sets/ways/latency) is not
// captured — it is derived from the machine Config the restoring side
// rebuilds with, and RestoreState rejects a mismatch.

// LevelState mirrors one cache level's tag store way for way: every way
// of every set, in recency order, each a line base with the dirty flag in
// bit 0, and empty ways (all ones) at the tail of their set. The format
// predates the 32-bit way words, which capture widens and restore narrows.
type LevelState struct {
	Lines []uint64
}

// HierarchyState mirrors the full three-level stack.
type HierarchyState struct {
	L1, L2, LLC LevelState
}

const emptyState = ^uint64(0) // an empty way in a LevelState

func (l *Level) captureState() LevelState {
	st := LevelState{Lines: make([]uint64, len(l.lines))}
	for i, w := range l.lines {
		st.Lines[i] = emptyState
		if w != emptyWay {
			st.Lines[i] = uint64(lineAddr(w)) | uint64(w&dirtyBit)
		}
	}
	return st
}

// restoreState checks every word of st before overwriting anything, so a
// corrupt snapshot is refused with the level as it was.
func (l *Level) restoreState(st LevelState) error {
	if len(st.Lines) != len(l.lines) {
		return fmt.Errorf("cache: %s geometry mismatch: %d ways in snapshot, %d in level",
			l.name, len(st.Lines), len(l.lines))
	}
	for si := 0; si < l.sets; si++ {
		set := st.Lines[si*l.ways : (si+1)*l.ways]
		for i, w := range set {
			if w == emptyState {
				continue
			}
			if i > 0 && set[i-1] == emptyState {
				return fmt.Errorf("cache: %s set %d: way %d holds %#x after an empty way", l.name, si, i, w)
			}
			if base := mem.PhysAddr(w &^ dirtyBit); base != mem.LineBase(base) || base >= wayLimit || l.setIndex(base) != si {
				return fmt.Errorf("cache: %s set %d: way %d holds %#x, not a line base of this set", l.name, si, i, w)
			}
		}
	}
	for i, w := range st.Lines {
		l.lines[i] = emptyWay
		if w != emptyState {
			l.lines[i] = lineWord(mem.PhysAddr(w&^dirtyBit)) | uint32(w&dirtyBit)
		}
	}
	return nil
}

// CaptureState copies the hierarchy's mutable tag state.
func (h *Hierarchy) CaptureState() HierarchyState {
	return HierarchyState{
		L1:  h.l1.captureState(),
		L2:  h.l2.captureState(),
		LLC: h.llc.captureState(),
	}
}

// RestoreState overwrites the hierarchy's tag state from a capture taken
// on an identically configured hierarchy. A capture of another geometry,
// one without Lines (written before the caches kept recency-ordered
// sets), or one with a corrupt set is refused with an error naming the
// level and, where one is at fault, the set.
func (h *Hierarchy) RestoreState(st HierarchyState) error {
	if err := h.l1.restoreState(st.L1); err != nil {
		return err
	}
	if err := h.l2.restoreState(st.L2); err != nil {
		return err
	}
	return h.llc.restoreState(st.LLC)
}
