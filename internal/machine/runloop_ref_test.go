package machine

import "kindle/internal/sim"

// steppedRunUntil is the reference for Machine.RunUntil: it advances the
// clock one cycle group at a time (clamped at target) and ticks at every
// boundary, empty or not, exactly as an OS run loop interleaving
// Clock.Advance with Machine.Tick would. RunUntil must fire the same events
// at the same clock values and stop at the same cycle while skipping the
// empty boundaries; FuzzRunUntil checks that.
func steppedRunUntil(m *Machine, target, group sim.Cycles) {
	now := m.Clock.Now()
	if target <= now {
		return
	}
	if group == 0 {
		group = target - now
	}
	for now < target {
		step := group
		if rem := target - now; rem < step {
			step = rem
		}
		m.Clock.Advance(step)
		m.Tick()
		now = m.Clock.Now()
	}
}
