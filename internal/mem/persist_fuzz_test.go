package mem

import (
	"bytes"
	"encoding/binary"
	"testing"

	"kindle/internal/sim"
)

// FuzzPersistDomain's input is a byte program: a layout byte, then
// operations, each an opcode byte followed by its operands. Missing bytes
// read as zero, so every input is a valid program.
const (
	fzWrite          = iota // addr, len: a patterned write of 1..160 bytes
	fzWriteLines            // addr, count: 1..4 whole aligned lines
	fzRead                  // addr, len: visible bytes must match
	fzCommitLine            // addr
	fzCommitRange           // addr, u16 size
	fzCommitAll             //
	fzPendingInRange        // addr, u16 size
	fzCrash                 //
	fzSnapshot              // CaptureState → RestoreState on a fresh controller
	fzHook                  // n, then n decision bytes (n = 0 removes the hook)
	fzWriteU64              // addr: a patterned word through the word path
	fzReadU64               // addr: the word path must read the visible bytes
	fzOps
)

// fuzzLayouts are the layouts a program picks from: an aligned NVM region
// spanning three directory slabs, one whose NVM base is not line-aligned
// (so one line straddles DRAM and NVM), and one whose base and end are not
// page-aligned.
var fuzzLayouts = []Layout{
	{DRAMBase: 0, DRAMSize: 1 * MiB, NVMBase: 1 * MiB, NVMSize: 5 * MiB},
	{DRAMBase: 0, DRAMSize: 1*MiB + 0x20, NVMBase: 1*MiB + 0x20, NVMSize: 5 * MiB},
	{DRAMBase: 0, DRAMSize: 1*MiB + 0x840, NVMBase: 1*MiB + 0x840, NVMSize: 5*MiB + 0x1c0},
}

// fuzzWindow is the span of each address window.
const fuzzWindow = 2 * PageSize

// fuzzWindows returns the bases of the windows operations address: DRAM,
// the DRAM/NVM boundary, the first directory slab boundary, the middle of
// NVM and the end of NVM (where lines run into the unmapped hole).
func fuzzWindows(l Layout) []PhysAddr {
	base := FrameNumber(l.NVMBase)
	return []PhysAddr{
		l.DRAMBase,
		l.NVMBase - PageSize,
		FrameBase(base+slabFrames) - PageSize,
		l.NVMBase + 3*MiB,
		l.NVMBase + PhysAddr(l.NVMSize) - PageSize,
	}
}

// fuzzProgram reads a program's bytes; reads past the end return zero.
type fuzzProgram struct{ data []byte }

func (r *fuzzProgram) byte() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzProgram) u16() uint64 { return uint64(r.byte()) | uint64(r.byte())<<8 }

func (r *fuzzProgram) addr(windows []PhysAddr) PhysAddr {
	w := windows[int(r.byte())%len(windows)]
	return w + PhysAddr(r.u16()%fuzzWindow)
}

// scriptHook answers the k-th commit with script[k%len(script)] and logs
// every line it is asked about.
type scriptHook struct {
	script []CommitDecision
	calls  int
	seen   *[]PhysAddr
}

func (h *scriptHook) OnCommit(line PhysAddr) CommitDecision {
	*h.seen = append(*h.seen, line)
	d := h.script[h.calls%len(h.script)]
	h.calls++
	return d
}

// hookDecision decodes one decision byte: the outcome in the low two bits
// (Full, None, Torn, Full), torn words 0..7 (so the clamps are exercised),
// and a crash when the top three bits are set.
func hookDecision(b byte) CommitDecision {
	return CommitDecision{
		Outcome: []CommitOutcome{CommitFull, CommitNone, CommitTorn, CommitFull}[b&3],
		Words:   int(b>>2) & 7,
		Crash:   b&0xE0 == 0xE0,
	}
}

// catchCrash runs fn and returns the CommitCrash it panicked with, if any.
func catchCrash(fn func()) (crashed *CommitCrash) {
	defer func() {
		if r := recover(); r != nil {
			cc, ok := r.(CommitCrash)
			if !ok {
				panic(r)
			}
			crashed = &cc
		}
	}()
	fn()
	return nil
}

// persistPair is the directory-backed domain (inside a Controller, so
// snapshots take the real CaptureState/RestoreState path) and the map
// reference, driven in lockstep.
type persistPair struct {
	t       *testing.T
	layout  Layout
	ctrl    *Controller
	stats   *sim.Stats
	ref     *mapDomain
	hook    *scriptHook
	refHook *scriptHook
	seen    []PhysAddr
	refSeen []PhysAddr
}

func newPersistPair(t *testing.T, l Layout) *persistPair {
	stats := sim.NewStats()
	return &persistPair{
		t:      t,
		layout: l,
		ctrl:   NewController(l, DDR4_2400(), PCM(), sim.NewClock(), stats),
		stats:  stats,
		ref:    newMapDomain(l, NewBacking(), sim.NewStats()),
	}
}

// both runs op on the domain and the reference; they must crash alike.
func (pp *persistPair) both(name string, op func(d persistOps) int) {
	var got, want int
	gotCrash := catchCrash(func() { got = op(pp.ctrl.Domain()) })
	wantCrash := catchCrash(func() { want = op(pp.ref) })
	switch {
	case (gotCrash == nil) != (wantCrash == nil) || gotCrash != nil && *gotCrash != *wantCrash:
		pp.t.Fatalf("%s: crash %v, reference crash %v", name, gotCrash, wantCrash)
	case gotCrash == nil && got != want:
		pp.t.Fatalf("%s: returned %d, reference %d", name, got, want)
	}
}

// persistOps is the surface both domains share.
type persistOps interface {
	Read(pa PhysAddr, dst []byte)
	Write(pa PhysAddr, src []byte)
	CommitLine(pa PhysAddr)
	CommitRange(pa PhysAddr, size uint64) int
	CommitAll() int
	PendingLines() int
	PendingInRange(pa PhysAddr, size uint64) int
	Crash()
	ReadCommitted(pa PhysAddr, dst []byte)
	WriteU64(pa PhysAddr, v uint64)
}

// WriteU64 is the reference's word store: eight little-endian bytes
// through Write, as Controller.WriteU64 did before the word path.
func (p *mapDomain) WriteU64(pa PhysAddr, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	p.Write(pa, buf[:])
}

func (pp *persistPair) setHook(script []CommitDecision) {
	pp.hook, pp.refHook = nil, nil
	pp.ctrl.Domain().SetCommitHook(nil)
	pp.ref.hook = nil
	if len(script) > 0 {
		pp.hook = &scriptHook{script: script, seen: &pp.seen}
		pp.refHook = &scriptHook{script: script, seen: &pp.refSeen}
		pp.ctrl.Domain().SetCommitHook(pp.hook)
		pp.ref.hook = pp.refHook
	}
}

// snapshot moves the domain through CaptureState and RestoreState onto a
// fresh controller over a fork of its backing, and the reference through
// its own capture and restore. The captures must be identical.
func (pp *persistPair) snapshot() {
	st := pp.ctrl.CaptureState()
	if want := pp.ref.capture(); !samePending(st.Pending, want) {
		pp.t.Fatalf("CaptureState pending lines %d differ from the reference's %d", len(st.Pending), len(want))
	}
	c := NewController(pp.layout, DDR4_2400(), PCM(), sim.NewClock(), pp.stats)
	if err := c.RestoreState(st, pp.ctrl.Backing().Fork()); err != nil {
		pp.t.Fatalf("RestoreState of a capture: %v", err)
	}
	if pp.hook != nil {
		c.Domain().SetCommitHook(pp.hook)
	}
	pp.ctrl = c
	pp.ref.restore(pp.ref.capture())
}

func samePending(a, b []PendingLineState) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// check compares everything observable: visible and committed bytes over
// every window, the durability counters, the pending-line count and the
// line sequence the commit hooks saw.
func (pp *persistPair) check(windows []PhysAddr) {
	d := pp.ctrl.Domain()
	got := make([]byte, fuzzWindow)
	want := make([]byte, fuzzWindow)
	for _, w := range windows {
		d.Read(w, got)
		pp.ref.Read(w, want)
		if !bytes.Equal(got, want) {
			pp.t.Fatalf("visible bytes of window %#x differ from the reference", uint64(w))
		}
		d.ReadCommitted(w, got)
		pp.ref.ReadCommitted(w, want)
		if !bytes.Equal(got, want) {
			pp.t.Fatalf("committed bytes of window %#x differ from the reference", uint64(w))
		}
	}
	for _, name := range []string{"persist.commit", "persist.commit_torn", "persist.crash_lost_lines", "persist.crashes"} {
		if g, w := pp.stats.Get(name), pp.ref.stats.Get(name); g != w {
			pp.t.Fatalf("%s = %d, reference %d", name, g, w)
		}
	}
	if g, w := d.PendingLines(), pp.ref.PendingLines(); g != w {
		pp.t.Fatalf("PendingLines = %d, reference %d", g, w)
	}
	if len(pp.seen) != len(pp.refSeen) {
		pp.t.Fatalf("hook saw %d commits, reference %d", len(pp.seen), len(pp.refSeen))
	}
	for i := range pp.seen {
		if pp.seen[i] != pp.refSeen[i] {
			pp.t.Fatalf("hook commit %d at line %#x, reference %#x", i, uint64(pp.seen[i]), uint64(pp.refSeen[i]))
		}
	}
}

// runPersistProgram executes one FuzzPersistDomain program.
func runPersistProgram(t *testing.T, data []byte) {
	r := &fuzzProgram{data: data}
	l := fuzzLayouts[int(r.byte())%len(fuzzLayouts)]
	windows := fuzzWindows(l)
	pp := newPersistPair(t, l)
	seq := byte(0)
	for len(r.data) > 0 {
		seq++
		switch op := r.byte() % fzOps; op {
		case fzWrite, fzWriteLines:
			pa := r.addr(windows)
			n := 1 + int(r.byte())%160
			if op == fzWriteLines {
				pa = LineBase(pa)
				n = LineSize * (1 + n%4)
			}
			src := make([]byte, n)
			for i := range src {
				src[i] = seq + byte(i)
			}
			pp.both("Write", func(d persistOps) int { d.Write(pa, src); return 0 })
		case fzRead:
			pa := r.addr(windows)
			got := make([]byte, 1+int(r.byte())%160)
			want := make([]byte, len(got))
			pp.ctrl.Domain().Read(pa, got)
			pp.ref.Read(pa, want)
			if !bytes.Equal(got, want) {
				t.Fatalf("Read(%#x, %d) differs from the reference", uint64(pa), len(got))
			}
		case fzCommitLine:
			pa := r.addr(windows)
			pp.both("CommitLine", func(d persistOps) int { d.CommitLine(pa); return 0 })
		case fzCommitRange:
			pa, size := r.addr(windows), r.u16()
			pp.both("CommitRange", func(d persistOps) int { return d.CommitRange(pa, size) })
		case fzCommitAll:
			pp.both("CommitAll", func(d persistOps) int { return d.CommitAll() })
		case fzPendingInRange:
			pa, size := r.addr(windows), r.u16()
			pp.both("PendingInRange", func(d persistOps) int { return d.PendingInRange(pa, size) })
		case fzCrash:
			pp.both("Crash", func(d persistOps) int { d.Crash(); return 0 })
		case fzSnapshot:
			pp.snapshot()
		case fzHook:
			script := make([]CommitDecision, int(r.byte())%5)
			for i := range script {
				script[i] = hookDecision(r.byte())
			}
			pp.setHook(script)
		case fzWriteU64:
			pa := r.addr(windows)
			v := 0x0101010101010101 * uint64(seq)
			pp.both("WriteU64", func(d persistOps) int { d.WriteU64(pa, v); return 0 })
		case fzReadU64:
			pa := r.addr(windows)
			var want [8]byte
			pp.ref.Read(pa, want[:])
			if got := pp.ctrl.ReadU64(pa); got != binary.LittleEndian.Uint64(want[:]) {
				t.Fatalf("ReadU64(%#x) = %#x, reference bytes %x", uint64(pa), got, want)
			}
		}
	}
	pp.check(windows)
	pp.snapshot()
	pp.check(windows)
}

// persistFuzzSeeds are hand-written programs covering each operation; the
// same set is checked in under testdata/fuzz/FuzzPersistDomain.
func persistFuzzSeeds() [][]byte {
	return [][]byte{
		// Writes straddling the first slab boundary, a range commit across
		// it, then a full barrier.
		{0, fzWrite, 2, 0xf0, 0x0f, 150, fzWriteLines, 2, 0x00, 0x10, 3,
			fzPendingInRange, 2, 0x00, 0x00, 0xff, 0x3f, fzCommitRange, 2, 0xc0, 0x0f, 0x00, 0x02,
			fzWrite, 3, 0x10, 0x00, 9, fzCommitAll},
		// Whole-line and partial writes at the DRAM/NVM boundary and the
		// NVM end, a snapshot, then power loss.
		{0, fzWriteLines, 1, 0xc0, 0x0f, 3, fzWrite, 1, 0x00, 0x10, 40, fzWrite, 4, 0xe0, 0x0f, 100,
			fzWrite, 0, 0x00, 0x01, 20, fzSnapshot, fzRead, 1, 0xf0, 0x0f, 90, fzCrash,
			fzRead, 4, 0xe0, 0x0f, 100},
		// Line-unaligned NVM base: writes and commits on the straddling line.
		{1, fzWrite, 1, 0xf8, 0x0f, 16, fzWrite, 1, 0x00, 0x10, 64, fzCommitLine, 1, 0x10, 0x10,
			fzPendingInRange, 1, 0x00, 0x00, 0x00, 0x20, fzCommitRange, 1, 0xe0, 0x0f, 0x80, 0x00},
		// A torn/none/full hook script over a full barrier, then a snapshot
		// with lines still pending.
		{2, fzWrite, 1, 0x00, 0x10, 159, fzWrite, 2, 0x40, 0x0f, 130, fzWriteLines, 3, 0x00, 0x00, 4,
			fzHook, 3, 2 | 3<<2, 1, 0, fzCommitAll, fzSnapshot, fzHook, 1, 2 | 7<<2, fzCommitAll,
			fzHook, 0, fzCommitAll},
		// A hook that crashes at the third commit of a range.
		{0, fzWriteLines, 3, 0x00, 0x00, 3, fzWriteLines, 3, 0x00, 0x01, 2,
			fzHook, 3, 0, 0, 0xE0, fzCommitRange, 3, 0x00, 0x00, 0x00, 0x02, fzCommitAll},
		// Range bounds inside a line and exactly on one, then a range that
		// starts in an empty slab and reaches pending lines in the next.
		{0, fzWriteLines, 2, 0x00, 0x10, 0, fzWrite, 2, 0x00, 0x11, 0,
			fzPendingInRange, 2, 0x01, 0x10, 0x00, 0x01, fzPendingInRange, 2, 0x00, 0x10, 0x00, 0x01,
			fzCommitRange, 2, 0x00, 0x08, 0x00, 0x10},
		// Words inside a line, straddling two NVM lines and straddling the
		// DRAM/NVM boundary (the unaligned base puts it mid-line), read
		// back through the word path before and after a commit and a crash.
		{1, fzWriteU64, 1, 0x08, 0x10, fzWriteU64, 1, 0x3c, 0x10, fzWriteU64, 1, 0x1c, 0x10,
			fzReadU64, 1, 0x08, 0x10, fzReadU64, 1, 0x3c, 0x10, fzReadU64, 1, 0x1c, 0x10,
			fzWriteU64, 0, 0xfc, 0x0f, fzReadU64, 0, 0xfc, 0x0f, fzCommitLine, 1, 0x40, 0x10,
			fzReadU64, 1, 0x3c, 0x10, fzCrash, fzReadU64, 1, 0x3c, 0x10, fzReadU64, 1, 0x1c, 0x10},
		// A word straddling a frame boundary in NVM and one at the NVM end,
		// where the second half falls into the unmapped hole.
		{0, fzWriteU64, 3, 0xfc, 0x0f, fzReadU64, 3, 0xfc, 0x0f, fzWriteU64, 4, 0xfc, 0x0f,
			fzReadU64, 4, 0xfc, 0x0f, fzSnapshot, fzReadU64, 3, 0xfc, 0x0f, fzCommitAll,
			fzReadU64, 4, 0xf8, 0x0f},
	}
}

// FuzzPersistDomain runs byte programs of writes, reads, commits, crashes,
// snapshots and commit hooks against the frame-indexed pending store and
// the map-based reference. They must return the same values, crash at the
// same commit, and leave the same visible and committed bytes, counters,
// pending lines and hook-observed commit sequence.
func FuzzPersistDomain(f *testing.F) {
	for _, s := range persistFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(runPersistProgram)
}
