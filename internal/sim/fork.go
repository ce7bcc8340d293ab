package sim

import "sort"

// This file holds the state-capture half of the simulation kernel: plain,
// serializable mirrors of the clock/queue/stats/rng internals that
// machine.Snapshot packs up so a forked machine can resume byte-identical
// to the original. Every exported State type here is gob-encodable.

// State returns the RNG's internal state for snapshotting.
func (r *RNG) State() uint64 { return r.state }

// SetState overwrites the RNG's internal state with one captured from a
// live generator (in place, so components holding the pointer follow).
func (r *RNG) SetState(state uint64) {
	if state == 0 {
		state = 0x9E3779B97F4A7C15
	}
	r.state = state
}

// PendingEvent describes one queued event for snapshotting: its deadline
// and registered name, in firing order. Handlers are closures and cannot
// be serialized; restore re-arms them by name (machine.RearmEvents).
type PendingEvent struct {
	When Cycles
	Name string
}

// PendingEvents returns the queue's pending events sorted by firing order
// (deadline, then insertion order). Re-scheduling events in exactly this
// order on a fresh queue reproduces the original's FIFO tie-breaking.
func (q *Queue) PendingEvents() []PendingEvent {
	evs := make([]*Event, len(q.h))
	copy(evs, q.h)
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].When != evs[j].When {
			return evs[i].When < evs[j].When
		}
		return evs[i].seq < evs[j].seq
	})
	out := make([]PendingEvent, len(evs))
	for i, e := range evs {
		out[i] = PendingEvent{When: e.When, Name: e.Name}
	}
	return out
}

// CounterState is one named counter value.
type CounterState struct {
	Name  string
	Value uint64
}

// HistogramState is a full histogram mirror.
type HistogramState struct {
	Name                 string
	Count, Sum, Min, Max uint64
	Buckets              [65]uint64
}

// StatsState captures a whole Stats registry: every counter and histogram
// (name-sorted, so serialized snapshots are deterministic) plus the
// interval-dump baseline.
type StatsState struct {
	Counters     []CounterState
	Hists        []HistogramState
	IntervalSnap []CounterState // interval baseline, empty until the first DumpInterval
	Intervals    int
}

// CaptureState copies the registry's current values.
func (s *Stats) CaptureState() StatsState {
	var st StatsState
	st.Counters = make([]CounterState, 0, len(s.counters))
	st.Hists = make([]HistogramState, 0, len(s.hists))
	if s.intervalSnap != nil {
		st.IntervalSnap = make([]CounterState, 0, len(s.intervalSnap))
	}
	for _, e := range s.stats {
		if h := e.h; h != nil {
			st.Hists = append(st.Hists, HistogramState{
				Name: h.name, Count: h.count, Sum: h.sum, Min: h.min, Max: h.max, Buckets: h.buckets,
			})
			continue
		}
		st.Counters = append(st.Counters, CounterState{Name: e.c.name, Value: e.c.v})
		if v, ok := s.intervalSnap[e.c.name]; ok {
			st.IntervalSnap = append(st.IntervalSnap, CounterState{Name: e.c.name, Value: v})
		}
	}
	st.Intervals = s.intervals
	return st
}

// RestoreState overwrites the registry with a captured state. Existing
// registrations are mutated in place — components holding pre-resolved
// Counter/Histogram handles keep observing the restored values — and
// stats present only in the capture are registered fresh. Every rendering
// walks the registry in name order, so registration-order differences
// between the capturing and restoring machines are invisible.
func (s *Stats) RestoreState(st StatsState) {
	s.Reset()
	for _, cs := range st.Counters {
		s.Counter(cs.Name).v = cs.Value
	}
	for _, hs := range st.Hists {
		h := s.Hist(hs.Name)
		h.count = hs.Count
		h.sum = hs.Sum
		h.min = hs.Min
		h.max = hs.Max
		h.buckets = hs.Buckets
	}
	if st.IntervalSnap != nil {
		s.intervalSnap = make(map[string]uint64, len(st.IntervalSnap))
		for _, cs := range st.IntervalSnap {
			s.intervalSnap[cs.Name] = cs.Value
		}
	}
	s.intervals = st.Intervals
}
