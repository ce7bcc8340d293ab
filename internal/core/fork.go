package core

import (
	"encoding/gob"
	"fmt"
	"io"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/trace"
)

// Framework-level snapshots: a machine snapshot plus the OS state layered
// on top (kernel, persistence manager, replay position). Taking one is
// cheap — the frame store is shared copy-on-write — so a run that has
// simulated a prefix can be resumed from it (`kindle -snapshot-in`) instead
// of re-simulating that prefix.

// ReplayState records where a replay stood at snapshot time. The record
// source itself is a stream and cannot be captured; ResumeReplay reopens
// the trace and fast-forwards the decoder (decode is cheap — the
// simulation of the prefix is what the snapshot saves).
type ReplayState struct {
	PID        int
	Consumed   int
	LastPeriod uint64
	Bases      []uint64
}

// Snapshot is a warmed framework frozen in time. All exported fields are
// plain data (gob-encodable); the frame store travels via Save/Load.
type Snapshot struct {
	M      *machine.Snapshot
	Kernel gemos.KernelState
	Mgr    *persist.ManagerState // nil when persistence is not enabled
	Replay *ReplayState          // nil when no replay was captured
}

// Snapshot captures the framework's full state. rep, when non-nil, records
// the replay position so ResumeReplay can continue the trace from here.
// The framework keeps running; its frame store switches to copy-on-write.
func (f *Framework) Snapshot(rep *Replay) *Snapshot {
	s := &Snapshot{M: f.M.Snapshot(), Kernel: f.K.CaptureState()}
	if f.mgr != nil {
		ms := f.mgr.CaptureState()
		s.Mgr = &ms
	}
	if rep != nil {
		s.Replay = &ReplayState{
			PID:        rep.P.PID,
			Consumed:   rep.consumed,
			LastPeriod: rep.lastPeriod,
			Bases:      append([]uint64(nil), rep.bases...),
		}
	}
	return s
}

// Resume builds a fresh framework from a snapshot: machine restored with a
// copy-on-write fork of the frame store, kernel and persistence manager
// rebuilt over it, pending events re-armed ("nvm.drain" by the machine,
// "persist.checkpoint" by the manager; a snapshot carrying events from
// stacks this path does not support — SSP, HSCC, scheduler ticks — refuses
// to resume). Safe to call concurrently on one Snapshot.
func Resume(s *Snapshot) (*Framework, error) {
	m, err := machine.NewFromSnapshot(s.M)
	if err != nil {
		return nil, err
	}
	k, err := gemos.RestoreKernel(m, s.Kernel)
	if err != nil {
		return nil, err
	}
	f := &Framework{M: m, K: k}
	extra := map[string]func(when sim.Cycles){}
	if s.Mgr != nil {
		mgr, err := persist.RestoreManager(k, *s.Mgr)
		if err != nil {
			return nil, err
		}
		f.mgr = mgr
		extra["persist.checkpoint"] = mgr.RearmCheckpoint
	}
	if err := m.RearmEvents(s.M, extra); err != nil {
		return nil, err
	}
	return f, nil
}

// ResumeReplay rebinds a snapshot's replay to a resumed framework. src
// must be a fresh source over the same trace the snapshot was taken from;
// the decoder fast-forwards past the records the snapshot already
// simulated. Tick boundaries are consumed-count-based, so the resumed
// replay fires them at exactly the cycles a never-interrupted run would.
func (f *Framework) ResumeReplay(s *Snapshot, src trace.RecordSource) (*Replay, error) {
	st := s.Replay
	if st == nil {
		return nil, fmt.Errorf("core: snapshot carries no replay state")
	}
	p := f.K.Process(st.PID)
	if p == nil {
		return nil, fmt.Errorf("core: snapshot replay pid %d not in restored process table", st.PID)
	}
	areas := src.Areas()
	if len(areas) != len(st.Bases) {
		return nil, fmt.Errorf("core: source has %d areas, snapshot mapped %d", len(areas), len(st.Bases))
	}
	rep := &Replay{
		f:          f,
		P:          p,
		src:        src,
		areas:      areas,
		bases:      append([]uint64(nil), st.Bases...),
		total:      src.Total(),
		lastPeriod: st.LastPeriod,
	}
	if err := rep.skip(st.Consumed); err != nil {
		return nil, err
	}
	return rep, nil
}

// skip fast-forwards the decoder past n records without simulating them.
func (r *Replay) skip(n int) error {
	for n > 0 {
		if r.pos >= len(r.batch) {
			ok, err := r.fill()
			if err != nil {
				return err
			}
			if !ok {
				return fmt.Errorf("core: trace ends %d records before the snapshot position", n)
			}
		}
		run := len(r.batch) - r.pos
		if run > n {
			run = n
		}
		r.pos += run
		r.consumed += run
		n -= run
	}
	return nil
}

// RunFromSnapshot resumes a framework and its replay in one call — the
// cold-boot-free equivalent of New + LaunchStream + (rewarm). The caller
// still drives rep.Run() and owns src.
func RunFromSnapshot(s *Snapshot, src trace.RecordSource) (*Framework, *Replay, error) {
	f, err := Resume(s)
	if err != nil {
		return nil, nil, err
	}
	rep, err := f.ResumeReplay(s, src)
	if err != nil {
		return nil, nil, err
	}
	return f, rep, nil
}

// snapshotFile is the on-disk envelope: the snapshot plus the materialized
// frame store (machine.Snapshot's live store is unexported and travels as
// a deterministic PFN-sorted image).
type snapshotFile struct {
	Snap *Snapshot
	Img  mem.BackingImage
}

// Save serializes the snapshot (gob). The output is deterministic: all
// captured state is name- or address-sorted.
func (s *Snapshot) Save(w io.Writer) error {
	return gob.NewEncoder(w).Encode(snapshotFile{Snap: s, Img: s.M.BackingImage()})
}

// LoadSnapshot deserializes a snapshot written by Save, ready for Resume.
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	var sf snapshotFile
	if err := gob.NewDecoder(r).Decode(&sf); err != nil {
		return nil, fmt.Errorf("core: decoding snapshot: %w", err)
	}
	if sf.Snap == nil || sf.Snap.M == nil {
		return nil, fmt.Errorf("core: snapshot file carries no machine state")
	}
	if err := sf.Snap.M.SetBackingImage(sf.Img); err != nil {
		return nil, err
	}
	return sf.Snap, nil
}
