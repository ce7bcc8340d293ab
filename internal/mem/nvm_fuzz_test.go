package mem

import (
	"reflect"
	"testing"

	"kindle/internal/sim"
)

// FuzzNVMWriteBuffer's input is a byte program: a depth byte, then
// operations, each an opcode byte followed by its operands. Missing bytes
// read as zero, so every input is a valid program.
const (
	nwWrite    = iota // line: a buffered write
	nwRead            // line: a read, which may hit the buffer
	nwAdvance         // u16: advance the clock by that many cycles
	nwFence           // advance the clock exactly to the newest deadline
	nwPast            // n: advance the clock n+1 cycles past every deadline
	nwDrain           // DrainLatency must match
	nwPending         // Pending must match
	nwReset           // power-up reset of both buffers
	nwSnapshot        // CaptureState → RestoreState on a fresh controller
	nwOps
)

var nwNames = [nwOps]string{"write", "read", "advance", "fence", "past", "drain", "pending", "reset", "snapshot"}

// nwDepths are the write-buffer depths a program picks from: a one-entry
// buffer that stalls on every second write, two in between, Table I's 48
// entries and ExtWriteBuffer's deepest point.
var nwDepths = []int{1, 8, 48, 192}

// nwLayout is small so a fresh controller per snapshot stays cheap.
var nwLayout = Layout{DRAMBase: 0, DRAMSize: 1 * MiB, NVMBase: 1 * MiB, NVMSize: 4 * MiB}

// nwAddr maps an operand byte to an address in one of 16 lines (the low
// nibble), at one of 16 word offsets inside it (the high nibble). The pool
// is small so reads often find their line buffered; lines 0-7 share a
// frame and 8-15 are a frame apart.
func nwAddr(b byte) PhysAddr {
	k := PhysAddr(b & 15)
	line := nwLayout.NVMBase + k*LineSize
	if k >= 8 {
		line = nwLayout.NVMBase + k*PageSize
	}
	return line + PhysAddr(b>>4)*4
}

// nvmPair is NVMSim (inside a Controller, so snapshots take the real
// CaptureState/RestoreState path) and the map-keyed reference on one
// clock, with separate stats.
type nvmPair struct {
	t        *testing.T
	timing   NVMTiming
	clock    *sim.Clock
	ctrl     *Controller
	stats    *sim.Stats
	ref      *refNVMSim
	refStats *sim.Stats
}

func newNVMPair(t *testing.T, depth int) *nvmPair {
	timing := PCM()
	timing.WriteBuf = depth
	np := &nvmPair{t: t, timing: timing, clock: sim.NewClock(), stats: sim.NewStats(), refStats: sim.NewStats()}
	np.ctrl = NewController(nwLayout, DDR4_2400(), timing, np.clock, np.stats)
	np.ref = newRefNVMSim(timing, np.clock, np.refStats)
	return np
}

// snapshot moves NVMSim through the controller's CaptureState and
// RestoreState onto a fresh controller, and the reference through its own
// capture and restore. The captures must be identical.
func (np *nvmPair) snapshot() {
	st := np.ctrl.CaptureState()
	if want := np.ref.captureState(); !reflect.DeepEqual(st.NVM, want) {
		np.t.Fatalf("CaptureState NVM %+v, reference %+v", st.NVM, want)
	}
	c := NewController(nwLayout, DDR4_2400(), np.timing, np.clock, np.stats)
	if err := c.RestoreState(st, np.ctrl.Backing().Fork()); err != nil {
		np.t.Fatalf("RestoreState of a capture: %v", err)
	}
	np.ctrl = c
	np.ref.restoreState(np.ref.captureState())
}

// check compares every nvm.* counter.
func (np *nvmPair) check(op string) {
	for _, name := range []string{"nvm.write", "nvm.write_stall", "nvm.write_stall_cycles", "nvm.read", "nvm.read_wbuf_hit"} {
		if g, w := np.stats.Get(name), np.refStats.Get(name); g != w {
			np.t.Fatalf("after %s at cycle %d: %s = %d, reference %d", op, np.clock.Now(), name, g, w)
		}
	}
}

func (np *nvmPair) same(op string, got, want sim.Cycles) {
	if got != want {
		np.t.Fatalf("%s at cycle %d = %d, reference %d", op, np.clock.Now(), got, want)
	}
}

// drain returns DrainLatency, which must match the reference's. Both
// sides are asked, so both expire the same entries.
func (np *nvmPair) drain(n *NVMSim) sim.Cycles {
	d := n.DrainLatency()
	np.same("DrainLatency", d, np.ref.DrainLatency())
	return d
}

// runNVMProgram executes one FuzzNVMWriteBuffer program.
func runNVMProgram(t *testing.T, data []byte) {
	r := &fuzzProgram{data: data}
	np := newNVMPair(t, nwDepths[int(r.byte())%len(nwDepths)])
	for len(r.data) > 0 {
		n := np.ctrl.NVM()
		op := r.byte() % nwOps
		switch op {
		case nwWrite:
			pa := nwAddr(r.byte())
			np.same("write", n.Access(pa, true), np.ref.Access(pa, true))
		case nwRead:
			pa := nwAddr(r.byte())
			np.same("read", n.Access(pa, false), np.ref.Access(pa, false))
		case nwAdvance:
			np.clock.Advance(sim.Cycles(r.u16()))
		case nwFence:
			np.clock.Advance(np.drain(n))
		case nwPast:
			np.clock.Advance(np.drain(n) + 1 + sim.Cycles(r.byte()))
		case nwDrain:
			np.drain(n)
		case nwPending:
			np.same("Pending", sim.Cycles(n.Pending()), sim.Cycles(np.ref.Pending()))
		case nwReset:
			n.Reset()
			np.ref.Reset()
		case nwSnapshot:
			np.snapshot()
		}
		np.check(nwNames[op])
	}
	np.same("Pending", sim.Cycles(np.ctrl.NVM().Pending()), sim.Cycles(np.ref.Pending()))
	np.snapshot()
	np.drain(np.ctrl.NVM())
}

// nvmFuzzSeeds are hand-written programs covering each operation; the
// same set is checked in under testdata/fuzz/FuzzNVMWriteBuffer.
func nvmFuzzSeeds() [][]byte {
	return [][]byte{
		// One entry: a read of the line just written hits, a fence lands
		// exactly on its deadline and drains it, and the next write to a
		// full buffer stalls.
		{0, nwWrite, 0x10, nwRead, 0x20, nwPending, nwFence, nwPending, nwRead, 0x00,
			nwWrite, 1, nwWrite, 2, nwRead, 1, nwRead, 2, nwDrain},
		// Eight entries: ten writes over three lines stall twice; reads hit
		// the rewritten lines, then a snapshot and a clock past every
		// deadline.
		{1, nwWrite, 0, nwWrite, 1, nwWrite, 0, nwWrite, 2, nwWrite, 0, nwWrite, 9, nwWrite, 1,
			nwWrite, 0, nwWrite, 0x32, nwWrite, 0x41, nwRead, 0x50, nwRead, 9, nwRead, 3,
			nwSnapshot, nwAdvance, 0xdc, 0x05, nwRead, 0, nwPending, nwPast, 0, nwRead, 0, nwPending},
		// Table I depth: a line rewritten while buffered stays readable
		// from the buffer until its newest entry drains, and a reset
		// drops everything.
		{2, nwWrite, 4, nwWrite, 5, nwWrite, 4, nwAdvance, 0xdc, 0x05, nwRead, 4, nwRead, 5,
			nwAdvance, 0xdc, 0x05, nwRead, 5, nwRead, 4, nwDrain, nwReset, nwRead, 4, nwPending},
		// ExtWriteBuffer's deepest point with a snapshot mid-stream and a
		// fence that lands on the last deadline.
		{3, nwWrite, 11, nwWrite, 12, nwWrite, 13, nwSnapshot, nwRead, 12, nwAdvance, 0x00, 0x10,
			nwWrite, 14, nwFence, nwRead, 14, nwPending, nwDrain},
	}
}

// FuzzNVMWriteBuffer runs byte programs of writes, reads, clock advances,
// drain and occupancy queries, resets and snapshots against NVMSim and the
// map-keyed write buffer it replaced. Every latency, every nvm.* counter
// and the occupancy must match.
func FuzzNVMWriteBuffer(f *testing.F) {
	for _, s := range nvmFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(runNVMProgram)
}
