package mem

import (
	"encoding/binary"
	"fmt"
	"math/bits"

	"kindle/internal/sim"
)

// PersistDomain implements NVM crash semantics on top of the functional
// Backing store. CPU stores to NVM first land in the volatile cache
// hierarchy; they become durable only when the line is written back —
// explicitly (clwb + fence) or implicitly (dirty eviction). A power failure
// loses everything not yet written back.
//
// Rather than holding data functionally inside the simulated caches, the
// domain keeps two images per dirty NVM line: the *committed* bytes (what
// the array holds) and the *pending* bytes (what the caches hold). Commit
// moves pending to committed; Crash discards pending. Reads through the
// memory system observe pending data (caches are coherent); recovery code
// running after a crash observes committed data only.
//
// Pending lines live in a frame-indexed store shaped like Backing's slab
// directory, indexed by NVM-relative frame number: each frame record holds
// a pending-line mask and the frame's 64 line buffers. Lookups are array
// loads, and walks in address order need no sort.
type PersistDomain struct {
	layout  Layout
	backing *Backing
	stats   *sim.Stats

	// pending is the directory of dirty-in-cache NVM lines: the record of
	// frame basePFN+rel sits at pending[rel>>slabFrameBits][rel&(slabFrames-1)].
	// It is sized to the NVM region at construction and never grows. The
	// backing store continues to hold the committed image until commit
	// time.
	pending  []*pendingSlab
	basePFN  uint64
	nPending int // pending lines across all records

	// freeFrames recycles frame records between pending cycles (a frame
	// going dirty → committed → dirty again is the common case and should
	// not allocate each round trip).
	freeFrames []*pendingFrame

	// hook, when non-nil, observes (and may intercept) every line commit.
	// Fault injection installs one; nil costs a single branch.
	hook CommitHook

	commits *sim.Counter
}

// pendingFrame is the cached (not yet durable) state of one NVM frame:
// bit i of mask is set when lines[i] holds line i's pending contents.
// Records in the directory always have a non-zero mask.
type pendingFrame struct {
	mask  uint64
	lines [LinesPerPage][LineSize]byte
}

// pendingSlab is one directory leaf: the records of a 2 MiB aligned run of
// NVM frames.
type pendingSlab [slabFrames]*pendingFrame

// maxFreeFrames bounds the record recycle pool (4 MiB of line buffers) so
// one huge dirty burst cannot pin records forever.
const maxFreeFrames = 1 << 10

// CommitOutcome tells the domain what to do with one line commit.
type CommitOutcome int

const (
	// CommitFull lets the whole line become durable (the default).
	CommitFull CommitOutcome = iota
	// CommitNone suppresses the commit: the line stays volatile.
	CommitNone
	// CommitTorn makes only the first Words 8-byte words of the line
	// durable, modeling a power failure mid-line on a device with an
	// 8-byte atomic write unit (PCM).
	CommitTorn
)

// CommitDecision is a CommitHook's verdict on one durability event. The
// zero value means "commit fully, keep running".
type CommitDecision struct {
	Outcome CommitOutcome
	// Words is the torn-prefix length in 8-byte words (1..7) for
	// CommitTorn.
	Words int
	// Crash aborts the simulation at this exact point by panicking with
	// CommitCrash after the outcome is applied; the harness recovers the
	// panic and calls Machine.Crash (see internal/fault).
	Crash bool
}

// CommitHook observes every NVM line-commit (durability) event: clwb/clflush
// completion, dirty write-back from the cache hierarchy, and each line of a
// CommitRange/CommitAll. It runs before the line becomes durable.
type CommitHook interface {
	OnCommit(line PhysAddr) CommitDecision
}

// CommitCrash is the panic value a CommitDecision with Crash set raises; it
// models a power failure at a precise durability event.
type CommitCrash struct {
	Line PhysAddr
}

func (c CommitCrash) String() string {
	return fmt.Sprintf("injected crash at commit of line %#x", uint64(c.Line))
}

// SetCommitHook installs (nil removes) the commit interceptor.
func (p *PersistDomain) SetCommitHook(h CommitHook) { p.hook = h }

// NewPersistDomain wraps backing with crash semantics for the NVM region of
// layout.
func NewPersistDomain(layout Layout, backing *Backing, stats *sim.Stats) *PersistDomain {
	p := &PersistDomain{
		layout:  layout,
		backing: backing,
		stats:   stats,
		basePFN: FrameNumber(layout.NVMBase),
		commits: stats.Counter("persist.commit"),
	}
	if layout.NVMSize > 0 {
		frames := FrameNumber(layout.NVMBase+PhysAddr(layout.NVMSize-1)) - p.basePFN + 1
		p.pending = make([]*pendingSlab, (frames+slabFrames-1)>>slabFrameBits)
	}
	return p
}

// isNVM reports whether pa belongs to the persistent region.
func (p *PersistDomain) isNVM(pa PhysAddr) bool { return p.layout.KindOf(pa) == NVM }

// lineIndex is the index of pa's line within its frame: its bit in a
// record's mask.
func lineIndex(pa PhysAddr) uint { return uint(pa%PageSize) / LineSize }

// pendingLine returns the record holding line and the line's index in it,
// or a nil record when line is not pending (lines outside the NVM region
// never are).
func (p *PersistDomain) pendingLine(line PhysAddr) (*pendingFrame, uint) {
	rel := FrameNumber(line) - p.basePFN
	si := rel >> slabFrameBits
	if si >= uint64(len(p.pending)) || p.pending[si] == nil {
		return nil, 0
	}
	li := lineIndex(line)
	if f := p.pending[si][rel&(slabFrames-1)]; f != nil && f.mask&(1<<li) != 0 {
		return f, li
	}
	return nil, 0
}

// pendingNVM returns the pending buffer for line if pa is NVM and the line
// has one.
func (p *PersistDomain) pendingNVM(pa, line PhysAddr) *[LineSize]byte {
	if !p.isNVM(pa) {
		return nil
	}
	if f, li := p.pendingLine(line); f != nil {
		return &f.lines[li]
	}
	return nil
}

// Read copies the *cache-visible* bytes at pa into dst: pending data where
// it exists, committed data elsewhere. Accesses may span lines.
func (p *PersistDomain) Read(pa PhysAddr, dst []byte) {
	for len(dst) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		// Test the region before the directory: DRAM reads (the page-walk
		// path issues many) never have pending data, and the layout check
		// is two compares.
		if buf := p.pendingNVM(pa, line); buf != nil {
			copy(dst[:n], buf[off:off+n])
		} else {
			p.backing.Read(pa, dst[:n])
		}
		dst = dst[n:]
		pa += PhysAddr(n)
	}
}

// Write stores src at pa with cache-visible (volatile for NVM) semantics.
// DRAM writes go straight to backing — DRAM has no durability to model and
// is dropped wholesale on crash. NVM writes populate the pending image.
func (p *PersistDomain) Write(pa PhysAddr, src []byte) {
	for len(src) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		if p.isNVM(pa) {
			buf := p.lineForWrite(line, n == LineSize)
			copy(buf[off:off+n], src[:n])
		} else {
			p.backing.Write(pa, src[:n])
		}
		src = src[n:]
		pa += PhysAddr(n)
	}
}

// ReadU64 reads the cache-visible little-endian word at pa: Read for
// eight bytes, without the line loop when the word sits in one line.
func (p *PersistDomain) ReadU64(pa PhysAddr) uint64 {
	line := LineBase(pa)
	off := uint64(pa - line)
	if off > LineSize-8 {
		var buf [8]byte
		p.Read(pa, buf[:])
		return binary.LittleEndian.Uint64(buf[:])
	}
	if buf := p.pendingNVM(pa, line); buf != nil {
		return binary.LittleEndian.Uint64(buf[off:])
	}
	return p.backing.ReadU64(pa)
}

// WriteU64 stores the little-endian word v at pa with Write's semantics,
// without the line loop when the word sits in one line.
func (p *PersistDomain) WriteU64(pa PhysAddr, v uint64) {
	line := LineBase(pa)
	off := uint64(pa - line)
	switch {
	case off > LineSize-8:
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], v)
		p.Write(pa, buf[:])
	case p.isNVM(pa):
		binary.LittleEndian.PutUint64(p.lineForWrite(line, false)[off:], v)
	default:
		p.backing.WriteU64(pa, v)
	}
}

// lineForWrite returns the pending buffer of line, a line overlapping the
// NVM region, making the line pending first if it is not. A newly pending
// line starts from the committed image unless whole says the caller is
// about to overwrite all of it.
func (p *PersistDomain) lineForWrite(line PhysAddr, whole bool) *[LineSize]byte {
	rel := FrameNumber(line) - p.basePFN
	si, fi := rel>>slabFrameBits, rel&(slabFrames-1)
	s := p.pending[si]
	if s == nil {
		s = new(pendingSlab)
		p.pending[si] = s
	}
	f := s[fi]
	if f == nil {
		if n := len(p.freeFrames); n > 0 {
			f = p.freeFrames[n-1]
			p.freeFrames = p.freeFrames[:n-1]
		} else {
			f = new(pendingFrame)
		}
		s[fi] = f
	}
	li := lineIndex(line)
	buf := &f.lines[li]
	if f.mask&(1<<li) == 0 {
		if !whole {
			p.backing.Read(line, buf[:]) // start from committed image
		}
		f.mask |= 1 << li
		p.nPending++
	}
	return buf
}

// CommitLine makes the pending contents of the line containing pa durable.
// Called on clwb/clflush completion and on dirty write-back of an NVM line
// from the cache hierarchy. Committing a line with no pending data is a
// no-op (clwb of a clean line).
func (p *PersistDomain) CommitLine(pa PhysAddr) {
	line := LineBase(pa)
	if f, li := p.pendingLine(line); f != nil {
		p.commit(line, f, li)
	}
}

// commit makes pending line li of record f, at address line, durable.
func (p *PersistDomain) commit(line PhysAddr, f *pendingFrame, li uint) {
	buf := &f.lines[li]
	if p.hook != nil {
		d := p.hook.OnCommit(line)
		switch d.Outcome {
		case CommitNone:
			// The line stays volatile (and is lost if d.Crash follows).
			if d.Crash {
				panic(CommitCrash{Line: line})
			}
			return
		case CommitTorn:
			w := d.Words
			if w < 1 {
				w = 1
			}
			if w > LineSize/8-1 {
				w = LineSize/8 - 1
			}
			p.backing.Write(line, buf[:w*8])
			p.stats.Inc("persist.commit_torn")
			if d.Crash {
				panic(CommitCrash{Line: line})
			}
			return
		default:
			if d.Crash {
				// Full commit, then power loss: the line is durable but
				// nothing after it is.
				p.backing.Write(line, buf[:])
				p.release(line, f, li)
				p.commits.Inc()
				panic(CommitCrash{Line: line})
			}
		}
	}
	p.backing.Write(line, buf[:])
	p.release(line, f, li)
	p.commits.Inc()
}

// release marks committed line li of record f clean, retiring the record
// once its last pending line is gone.
func (p *PersistDomain) release(line PhysAddr, f *pendingFrame, li uint) {
	f.mask &^= 1 << li
	p.nPending--
	if f.mask != 0 {
		return
	}
	rel := FrameNumber(line) - p.basePFN
	p.pending[rel>>slabFrameBits][rel&(slabFrames-1)] = nil
	p.recycle(f)
}

// recycle returns a retired record to the free list (bounded so one huge
// dirty burst cannot pin records forever).
func (p *PersistDomain) recycle(f *pendingFrame) {
	if len(p.freeFrames) < maxFreeFrames {
		p.freeFrames = append(p.freeFrames, f)
	}
}

// walk visits, in address order, every pending line whose base lies in
// [lo, hi), committing each when commit is set, and returns how many lines
// it visited. A record's mask is read before its first line commits, so a
// commit that releases the record does not disturb the walk.
func (p *PersistDomain) walk(lo, hi PhysAddr, commit bool) int {
	if hi <= lo || FrameNumber(hi-1) < p.basePFN {
		return 0
	}
	end := min(FrameNumber(hi-1)-p.basePFN+1, uint64(len(p.pending))<<slabFrameBits)
	var rel uint64
	if first := FrameNumber(lo); first > p.basePFN {
		rel = first - p.basePFN
	}
	n := 0
	for ; rel < end; rel++ {
		s := p.pending[rel>>slabFrameBits]
		if s == nil {
			rel |= slabFrames - 1 // skip the rest of the empty slab
			continue
		}
		f := s[rel&(slabFrames-1)]
		if f == nil {
			continue
		}
		fb := FrameBase(p.basePFN + rel)
		m := f.mask & linesIn(fb, lo, hi)
		n += bits.OnesCount64(m)
		for ; commit && m != 0; m &= m - 1 {
			li := uint(bits.TrailingZeros64(m))
			p.commit(fb+PhysAddr(li*LineSize), f, li)
		}
	}
	return n
}

// linesIn returns the mask of the lines of the frame at fb whose bases lie
// in [lo, hi); the caller guarantees the frame overlaps that range.
func linesIn(fb, lo, hi PhysAddr) uint64 {
	m := ^uint64(0)
	if lo > fb {
		k := (uint64(lo-fb) + LineSize - 1) / LineSize
		if k >= LinesPerPage {
			return 0
		}
		m <<= k
	}
	if uint64(hi-fb) < PageSize {
		k := (uint64(hi-fb) + LineSize - 1) / LineSize
		m &= 1<<k - 1
	}
	return m
}

// CommitRange commits every pending line overlapping [pa, pa+size), in
// address order, and returns how many there were.
func (p *PersistDomain) CommitRange(pa PhysAddr, size uint64) int {
	if size == 0 {
		return 0
	}
	return p.walk(LineBase(pa), pa+PhysAddr(size), true)
}

// CommitAll drains every pending line (a full persist barrier, used by the
// checkpoint boundary, orderly shutdown and tests). Lines commit in address
// order so the sequence of durability events is deterministic — commit-point
// fault injection replays runs and must observe identical event streams.
func (p *PersistDomain) CommitAll() int {
	return p.walk(0, ^PhysAddr(0), true)
}

// PendingLines reports how many NVM lines are dirty-in-cache.
func (p *PersistDomain) PendingLines() int { return p.nPending }

// PendingInRange reports dirty-in-cache lines whose base lies in
// [pa, pa+size).
func (p *PersistDomain) PendingInRange(pa PhysAddr, size uint64) int {
	return p.walk(pa, pa+PhysAddr(size), false)
}

// Crash models power loss: all pending (non-durable) NVM data is lost and
// all DRAM contents disappear. The committed NVM image survives untouched.
func (p *PersistDomain) Crash() {
	p.stats.Add("persist.crash_lost_lines", uint64(p.nPending))
	p.dropPending()
	p.backing.DropRange(p.layout.DRAMBase, p.layout.DRAMSize)
	p.stats.Inc("persist.crashes")
}

// dropPending discards every pending line, recycling the records.
func (p *PersistDomain) dropPending() {
	for _, s := range p.pending {
		if s == nil {
			continue
		}
		for fi, f := range s {
			if f == nil {
				continue
			}
			f.mask = 0
			s[fi] = nil
			p.recycle(f)
		}
	}
	p.nPending = 0
}

// appendPending appends every pending line to dst in address order.
func (p *PersistDomain) appendPending(dst []PendingLineState) []PendingLineState {
	for si, s := range p.pending {
		if s == nil {
			continue
		}
		for fi, f := range s {
			if f == nil {
				continue
			}
			fb := FrameBase(p.basePFN + uint64(si)<<slabFrameBits + uint64(fi))
			for m := f.mask; m != 0; m &= m - 1 {
				li := bits.TrailingZeros64(m)
				dst = append(dst, PendingLineState{Line: uint64(fb) + uint64(li)*LineSize, Data: f.lines[li]})
			}
		}
	}
	return dst
}

// restorePending replaces the pending lines with lines. Each must be
// line-aligned, overlap the NVM region and appear once; otherwise the
// domain is left with no pending lines and an error is returned.
func (p *PersistDomain) restorePending(lines []PendingLineState) error {
	p.dropPending()
	nvmEnd := p.layout.NVMBase + PhysAddr(p.layout.NVMSize)
	for i := range lines {
		line := PhysAddr(lines[i].Line)
		var err error
		if line%LineSize != 0 {
			err = fmt.Errorf("mem: RestoreState: pending line %#x is not line-aligned", uint64(line))
		} else if line >= nvmEnd || line+LineSize <= p.layout.NVMBase {
			err = fmt.Errorf("mem: RestoreState: pending line %#x is outside the NVM region", uint64(line))
		} else if f, _ := p.pendingLine(line); f != nil {
			err = fmt.Errorf("mem: RestoreState: pending line %#x appears twice", uint64(line))
		}
		if err != nil {
			p.dropPending()
			return err
		}
		*p.lineForWrite(line, true) = lines[i].Data
	}
	return nil
}

// ReadCommitted reads the durable image directly, bypassing pending data.
// Only post-crash assertions in tests need it; recovery code simply uses
// Read after Crash has discarded pending lines.
func (p *PersistDomain) ReadCommitted(pa PhysAddr, dst []byte) {
	p.backing.Read(pa, dst)
}
