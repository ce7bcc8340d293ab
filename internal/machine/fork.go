package machine

import (
	"fmt"

	"kindle/internal/cache"
	"kindle/internal/cpu"
	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// Snapshot is a booted, warmed machine frozen in time: every piece of
// architectural state plus a copy-on-write fork of the frame store.
// Taking one is O(directory + small state), not O(resident memory); each
// NewFromSnapshot re-forks the frozen store, so any number of children
// (and the parent, which keeps running) share frames read-only and
// privatize 2 MiB slabs only on first write.
//
// Pending events are captured as (deadline, name) pairs — handlers are
// closures and cannot be copied between machines — and are re-armed by
// name on restore (RearmEvents). A snapshot whose event names the
// restoring stack cannot re-arm refuses to restore rather than silently
// dropping a timer.
//
// All exported fields are plain data, so a Snapshot gob-encodes; the
// frame store travels separately via BackingImage/SetBackingImage.
type Snapshot struct {
	Cfg    Config
	Now    sim.Cycles
	RNG    uint64
	Booted int
	Stats  sim.StatsState
	Mem    mem.ControllerState
	Hier   cache.HierarchyState
	TLB    tlb.State
	Core   cpu.CoreState
	Events []sim.PendingEvent

	// backing is the frozen COW frame store (every slab shared). It is
	// never written through, so concurrent Forks of it are race-free.
	backing *mem.Backing
}

// Snapshot captures the machine's full architectural state. The machine
// remains usable; its frame store is silently switched to copy-on-write
// (first writes after the snapshot privatize slabs).
func (m *Machine) Snapshot() *Snapshot {
	return &Snapshot{
		Cfg:     m.Cfg,
		Now:     m.Clock.Now(),
		RNG:     m.RNG.State(),
		Booted:  m.booted,
		Stats:   m.Stats.CaptureState(),
		Mem:     m.Ctrl.CaptureState(),
		Hier:    m.Hier.CaptureState(),
		TLB:     m.TLB.CaptureState(),
		Core:    m.Core.CaptureState(),
		Events:  m.Events.PendingEvents(),
		backing: m.Ctrl.Backing().Fork(),
	}
}

// BackingImage materializes the frozen frame store for serialization
// (ascending PFN order, deterministic bytes).
func (s *Snapshot) BackingImage() mem.BackingImage {
	return s.backing.Image()
}

// SetBackingImage installs a deserialized frame store. The rebuilt store
// is frozen immediately so later restores share it copy-on-write. An image
// BackingImage could not have written is refused: a frame number outside
// the snapshot layout's DRAM and NVM regions, or one not above the frame
// before it (a repeated frame would overwrite an earlier one).
func (s *Snapshot) SetBackingImage(img mem.BackingImage) error {
	for i, pfn := range img.PFNs {
		if !s.Cfg.Layout.HoldsFrame(pfn) {
			return fmt.Errorf("machine: snapshot frame %d: pfn %#x lies outside DRAM and NVM", i, pfn)
		}
		if i > 0 && pfn <= img.PFNs[i-1] {
			return fmt.Errorf("machine: snapshot frame %d: pfn %#x does not follow pfn %#x", i, pfn, img.PFNs[i-1])
		}
	}
	b, err := mem.NewBackingFromImage(img)
	if err != nil {
		return err
	}
	s.backing = b.Fork()
	return nil
}

// NewFromSnapshot builds a fresh machine and restores the snapshot into
// it: identical Config wiring (so pre-resolved counter handles stay
// valid), then every captured state overlaid, with the frame store forked
// copy-on-write from the snapshot. Pending events are NOT re-armed here —
// the caller finishes with RearmEvents once OS-level timers have their
// handlers back (machine-only users can pass nil extras).
//
// Safe to call concurrently on one Snapshot: the frozen store is only
// read, and everything else is deep-copied.
func NewFromSnapshot(s *Snapshot) (*Machine, error) {
	if s.backing == nil {
		return nil, fmt.Errorf("machine: snapshot has no frame store (missing SetBackingImage after load?)")
	}
	m := New(s.Cfg)
	m.Clock.AdvanceTo(s.Now)
	m.RNG.SetState(s.RNG)
	m.booted = s.Booted
	m.Stats.RestoreState(s.Stats)
	if err := m.Ctrl.RestoreState(s.Mem, s.backing.Fork()); err != nil {
		return nil, err
	}
	if err := m.Hier.RestoreState(s.Hier); err != nil {
		return nil, err
	}
	if err := m.TLB.RestoreState(s.TLB); err != nil {
		return nil, err
	}
	m.Core.RestoreState(s.Core)
	return m, nil
}

// RearmEvents re-schedules the snapshot's pending events on m's queue, in
// captured firing order (deadline, then original insertion order), so the
// fresh queue reproduces the parent's FIFO tie-breaking. Hardware events
// the machine owns ("nvm.drain") re-arm internally; anything else must
// have a handler in extra, keyed by event name, that schedules exactly
// one event at the given deadline. An event with no handler is an error:
// the snapshot came from a stack (SSP, HSCC, scheduler, traffic, interval
// dumps...) this restore path does not support.
func (m *Machine) RearmEvents(s *Snapshot, extra map[string]func(when sim.Cycles)) error {
	for _, ev := range s.Events {
		if ev.Name == "nvm.drain" {
			m.Ctrl.NVM().RearmDrain(ev.When)
			continue
		}
		fn, ok := extra[ev.Name]
		if !ok {
			return fmt.Errorf("machine: snapshot has pending event %q with no re-arm handler", ev.Name)
		}
		fn(ev.When)
	}
	return nil
}
