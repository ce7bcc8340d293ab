package mem

import "kindle/internal/sim"

// refNVMSim is the reference NVM front-end: the write buffer NVMSim kept
// before its drain FIFO became the only buffer state, with a line ->
// deadline map beside the FIFO that reads probe. It is kept only as the
// oracle FuzzNVMWriteBuffer checks NVMSim against: the same latencies,
// the same nvm.* counters and the same occupancy for every program.
type refNVMSim struct {
	timing NVMTiming
	clock  *sim.Clock
	stats  *sim.Stats

	writes          *sim.Counter
	writeStalls     *sim.Counter
	writeStallCycle *sim.Counter
	reads           *sim.Counter
	readWbufHits    *sim.Counter

	readCycles  sim.Cycles
	writeCycles sim.Cycles
	burstCycles sim.Cycles

	// Write buffer: each entry is the line address and its drain deadline.
	// drainFree is the cycle at which the device can start the next drain.
	// The FIFO's live entries are drainHead[drainAt:]; expired entries are
	// skipped by advancing drainAt and the storage is compacted in place
	// when full, so the buffer reaches a steady capacity and never
	// reallocates again (the replay step must stay allocation-free).
	wbuf      map[PhysAddr]sim.Cycles // line -> drain completion
	drainHead []wbufEntry             // FIFO storage; live from drainAt
	drainAt   int
	drainFree sim.Cycles

	// Drain-completion event ("nvm.drain"): armed at the oldest live
	// entry's completion so the event-driven run loop sees the buffer
	// emptying as a deadline instead of discovering it lazily on the next
	// access. expire is idempotent and side-effect-free on stats, so the
	// event firing earlier than the next access changes nothing observable.
	// One Event allocation is reused for the life of the sim (Reschedule)
	// to keep the replay steady state allocation-free.
	events     *sim.Queue
	drainEv    *sim.Event
	drainFn    func(sim.Cycles)
	drainArmed bool
}

// newRefNVMSim builds the NVM device model.
func newRefNVMSim(t NVMTiming, clock *sim.Clock, stats *sim.Stats) *refNVMSim {
	return &refNVMSim{
		timing:      t,
		clock:       clock,
		stats:       stats,
		readCycles:  sim.FromNanos(t.ReadNanos),
		writeCycles: sim.FromNanos(t.WriteNanos),
		burstCycles: sim.FromNanos(t.Burst),
		wbuf:        make(map[PhysAddr]sim.Cycles),

		writes:          stats.Counter("nvm.write"),
		writeStalls:     stats.Counter("nvm.write_stall"),
		writeStallCycle: stats.Counter("nvm.write_stall_cycles"),
		reads:           stats.Counter("nvm.read"),
		readWbufHits:    stats.Counter("nvm.read_wbuf_hit"),
	}
}

// SetEvents registers the machine's event queue so buffered-write drain
// completions surface as scheduled events. Without a queue the buffer
// expires lazily on the next access, which is timing-equivalent but
// invisible to an event-driven run loop.
func (n *refNVMSim) SetEvents(q *sim.Queue) {
	n.events = q
	n.drainFn = func(sim.Cycles) {
		n.drainArmed = false
		n.expire(n.clock.Now())
		n.armDrain()
	}
}

// armDrain schedules (or re-arms) the drain event at the oldest live
// entry's completion.
func (n *refNVMSim) armDrain() {
	if n.events == nil || n.drainArmed || n.buffered() == 0 {
		return
	}
	when := n.drainHead[n.drainAt].done
	if n.drainEv == nil {
		n.drainEv = n.events.Schedule(when, "nvm.drain", n.drainFn)
	} else {
		n.events.Reschedule(n.drainEv, when)
	}
	n.drainArmed = true
}

// buffered reports the live write-buffer occupancy.
func (n *refNVMSim) buffered() int { return len(n.drainHead) - n.drainAt }

// expire drops buffer entries whose programming completed by now.
func (n *refNVMSim) expire(now sim.Cycles) {
	i := n.drainAt
	for ; i < len(n.drainHead); i++ {
		e := n.drainHead[i]
		if e.done > now {
			break
		}
		if n.wbuf[e.line] == e.done {
			delete(n.wbuf, e.line)
		}
	}
	n.drainAt = i
	if n.drainAt == len(n.drainHead) {
		n.drainHead = n.drainHead[:0]
		n.drainAt = 0
	}
}

// Access returns the latency of one 64-byte line access at pa.
func (n *refNVMSim) Access(pa PhysAddr, write bool) sim.Cycles {
	line := LineBase(pa)
	now := n.clock.Now()
	n.expire(now)
	if write {
		n.writes.Inc()
		lat := n.burstCycles
		// If the buffer is full, stall until the oldest entry drains.
		if n.buffered() >= n.timing.WriteBuf {
			oldest := n.drainHead[n.drainAt]
			if oldest.done > now {
				stall := oldest.done - now
				lat += stall
				now = oldest.done
				n.writeStallCycle.Add(uint64(stall))
				n.writeStalls.Inc()
			}
			n.expire(now)
		}
		// Queue the programming operation: the device drains entries
		// serially at the programming rate.
		start := n.drainFree
		if start < now {
			start = now
		}
		done := start + n.writeCycles
		n.drainFree = done
		n.wbuf[line] = done
		if n.drainAt > 0 && len(n.drainHead) == cap(n.drainHead) {
			// Slide the live tail to the front instead of growing.
			live := copy(n.drainHead, n.drainHead[n.drainAt:])
			n.drainHead = n.drainHead[:live]
			n.drainAt = 0
		}
		n.drainHead = append(n.drainHead, wbufEntry{line: line, done: done})
		n.armDrain()
		return lat
	}
	n.reads.Inc()
	// Read hit in the write buffer: served at interface speed.
	if _, ok := n.wbuf[line]; ok {
		n.readWbufHits.Inc()
		return n.burstCycles
	}
	return n.readCycles + n.burstCycles
}

// DrainLatency returns how long the requester must wait for every buffered
// write to reach the array (a persist barrier / flush-on-fence).
func (n *refNVMSim) DrainLatency() sim.Cycles {
	now := n.clock.Now()
	n.expire(now)
	if n.drainFree <= now {
		return 0
	}
	return n.drainFree - now
}

// Pending reports the number of writes still in the buffer.
func (n *refNVMSim) Pending() int {
	n.expire(n.clock.Now())
	return n.buffered()
}

// Reset clears the write buffer (power-up after crash; buffered writes that
// had not reached the array are lost — the persist domain models the data
// loss, this models the timing state).
func (n *refNVMSim) Reset() {
	n.wbuf = make(map[PhysAddr]sim.Cycles)
	n.drainHead = n.drainHead[:0]
	n.drainAt = 0
	n.drainFree = n.clock.Now()
	if n.drainArmed {
		n.events.Cancel(n.drainEv)
		n.drainArmed = false
	}
}

// captureState mirrors Controller.CaptureState's NVM half.
func (n *refNVMSim) captureState() NVMState {
	live := n.drainHead[n.drainAt:]
	st := NVMState{Drain: make([]WBufEntryState, len(live)), DrainFree: n.drainFree}
	for i, e := range live {
		st.Drain[i] = WBufEntryState{Line: uint64(e.line), Done: e.done}
	}
	return st
}

// restoreState is the NVM half of Controller.RestoreState as it was: the
// FIFO is copied and the map rebuilt from it.
func (n *refNVMSim) restoreState(st NVMState) {
	n.drainHead = n.drainHead[:0]
	n.drainAt = 0
	n.wbuf = make(map[PhysAddr]sim.Cycles, len(st.Drain))
	for _, e := range st.Drain {
		n.drainHead = append(n.drainHead, wbufEntry{line: PhysAddr(e.Line), done: e.Done})
		// Later entries for the same line overwrite earlier ones, exactly
		// the state the live writes left behind.
		n.wbuf[PhysAddr(e.Line)] = e.Done
	}
	n.drainFree = st.DrainFree
	n.drainArmed = false
}
