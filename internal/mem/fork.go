package mem

import (
	"fmt"

	"kindle/internal/sim"
)

// This file captures and restores the memory system's mutable state for
// machine snapshots. Frame contents do not appear here — they ride in the
// copy-on-write Backing (Backing.Fork) and are swapped in wholesale on
// restore; what this file mirrors is the small device/domain state around
// them: DRAM open rows, the NVM write buffer, and the persist domain's
// dirty-in-cache lines. Every State type is plain data (gob-encodable)
// with deterministic slice ordering.

// WBufEntryState is one live NVM write-buffer entry (FIFO order).
type WBufEntryState struct {
	Line uint64
	Done sim.Cycles
}

// NVMState mirrors the NVM controller front-end: the live drain FIFO (the
// write buffer's only state) and the device's next free programming slot.
// The drain event's arming is captured with the rest of the pending events
// by the machine layer, not here.
type NVMState struct {
	Drain     []WBufEntryState
	DrainFree sim.Cycles
}

// PendingLineState is one dirty-in-cache NVM line: volatile contents that
// a crash would lose.
type PendingLineState struct {
	Line uint64
	Data [LineSize]byte
}

// ControllerState is the memory system's snapshot (minus frame contents).
type ControllerState struct {
	DRAMOpenRows []int64
	NVM          NVMState
	Pending      []PendingLineState
}

// CaptureState copies the controller's mutable device and domain state.
func (c *Controller) CaptureState() ControllerState {
	var st ControllerState
	st.DRAMOpenRows = append([]int64(nil), c.dram.openRow...)
	live := c.nvm.drainHead[c.nvm.drainAt:]
	st.NVM.Drain = make([]WBufEntryState, len(live))
	for i, e := range live {
		st.NVM.Drain[i] = WBufEntryState{Line: uint64(e.line), Done: e.done}
	}
	st.NVM.DrainFree = c.nvm.drainFree
	st.Pending = c.domain.appendPending(make([]PendingLineState, 0, c.domain.PendingLines()))
	return st
}

// RestoreState overwrites the controller's device/domain state from a
// capture and swaps in backing as the functional store (normally a
// Backing.Fork of the captured machine's). The controller must be freshly
// constructed with the same layout and timing parameters. Captures may come
// from snapshot files, so they are checked. The open rows and the drain
// FIFO are checked before anything changes: a refused FIFO leaves the
// controller as it was. Each pending line is checked as it is restored:
// one that is not line-aligned, lies outside the NVM region or appears
// twice is an error and leaves no line pending.
func (c *Controller) RestoreState(st ControllerState, backing *Backing) error {
	if backing == nil {
		return fmt.Errorf("mem: RestoreState needs a backing store")
	}
	if len(st.DRAMOpenRows) != len(c.dram.openRow) {
		return fmt.Errorf("mem: RestoreState: %d open rows vs %d banks", len(st.DRAMOpenRows), len(c.dram.openRow))
	}
	n := c.nvm
	if err := n.checkDrain(st.NVM, c.Layout); err != nil {
		return err
	}
	c.backing = backing
	c.domain.backing = backing
	copy(c.dram.openRow, st.DRAMOpenRows)

	n.drainHead = n.drainHead[:0]
	n.drainAt = 0
	for _, e := range st.NVM.Drain {
		n.drainHead = append(n.drainHead, wbufEntry{line: PhysAddr(e.Line), done: e.Done})
	}
	n.drainFree = st.NVM.DrainFree
	n.drainArmed = false
	return c.domain.restorePending(st.Pending)
}

// checkDrain refuses a drain FIFO the write buffer could not have built:
// more entries than it holds, a line that is not a line-aligned address
// overlapping the NVM region, or deadlines that decrease along the FIFO or
// pass DrainFree. The read path relies on the order: a line is buffered
// exactly when a live entry holds it only if entries expire oldest first.
func (n *NVMSim) checkDrain(st NVMState, l Layout) error {
	if len(st.Drain) > n.timing.WriteBuf {
		return fmt.Errorf("mem: RestoreState: drain FIFO holds %d entries, the write buffer %d", len(st.Drain), n.timing.WriteBuf)
	}
	nvmEnd := l.NVMBase + PhysAddr(l.NVMSize)
	var prev sim.Cycles
	for i, e := range st.Drain {
		line := PhysAddr(e.Line)
		switch {
		case line%LineSize != 0:
			return fmt.Errorf("mem: RestoreState: drain entry %d: line %#x is not line-aligned", i, e.Line)
		case line >= nvmEnd || line+LineSize <= l.NVMBase:
			return fmt.Errorf("mem: RestoreState: drain entry %d: line %#x is outside the NVM region", i, e.Line)
		case e.Done < prev:
			return fmt.Errorf("mem: RestoreState: drain entry %d: deadline %d is before the previous entry's %d", i, e.Done, prev)
		case e.Done > st.DrainFree:
			return fmt.Errorf("mem: RestoreState: drain entry %d: deadline %d is after DrainFree %d", i, e.Done, st.DrainFree)
		}
		prev = e.Done
	}
	return nil
}

// RearmDrain re-arms the drain-completion event at an exact deadline
// captured from a snapshot's pending-event list. Restores use this
// instead of armDrain so a fork reproduces the parent's (possibly stale,
// harmlessly early) arming rather than re-deriving it from the FIFO.
func (n *NVMSim) RearmDrain(when sim.Cycles) {
	if n.events == nil {
		return
	}
	if n.drainArmed {
		n.events.Cancel(n.drainEv)
	}
	if n.drainEv == nil {
		n.drainEv = n.events.Schedule(when, "nvm.drain", n.drainFn)
	} else {
		n.events.Reschedule(n.drainEv, when)
	}
	n.drainArmed = true
}
