package machine

import "kindle/internal/sim"

// RunUntil advances the machine with no instructions in flight until the
// clock reaches target, firing due events along the way. group is the
// boundary grain: events fire only at boundaries group cycles apart,
// measured from wherever the clock stands, so an event fires at the first
// boundary at or after its deadline (clamped at target) — exactly as an OS
// run loop interleaving Clock.Advance(group) with Machine.Tick would fire
// it. group 0, or a group reaching past target, means a single step to
// target.
//
// The loop jumps the clock straight to the boundary that fires the
// earliest pending deadline instead of visiting the empty boundaries
// before it; their Tick would be a no-op. Handlers that advance the clock
// themselves (checkpoints do) move the origin: each iteration re-reads the
// clock and measures the next boundary from wherever the last handler left
// it.
func (m *Machine) RunUntil(target, group sim.Cycles) {
	now := m.Clock.Now()
	if target <= now {
		return
	}
	if group <= 0 || group > target-now {
		group = target - now
	}
	for now < target {
		next := target
		if when, ok := m.Events.NextDeadline(); ok && when <= target {
			// First group boundary >= the deadline. A deadline already
			// at or before now (scheduled by a handler that just ran)
			// fires at the next boundary, now+group.
			boundary := now + group
			if when > now {
				k := (when - now + group - 1) / group
				boundary = now + k*group
			}
			if boundary < next {
				next = boundary
			}
		}
		m.Clock.AdvanceTo(next)
		m.Tick()
		now = m.Clock.Now()
	}
}

// RunIdle advances the machine d cycles of idle time at the given group
// grain; see RunUntil.
func (m *Machine) RunIdle(d, group sim.Cycles) {
	m.RunUntil(m.Clock.Now()+d, group)
}
