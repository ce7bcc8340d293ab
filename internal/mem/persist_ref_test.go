package mem

import (
	"sort"

	"kindle/internal/sim"
)

// mapDomain is the reference persist domain: the map-keyed pending store
// PersistDomain used before its frame-indexed directory, kept only as the
// oracle FuzzPersistDomain checks the directory against. Its behaviour is
// the contract: the same visible and committed bytes, the same durability
// events in the same order, and the same counters.
type mapDomain struct {
	layout  Layout
	backing *Backing
	stats   *sim.Stats

	// pending maps a line base address to the cached (not yet durable)
	// contents of the full 64-byte line.
	pending  map[PhysAddr]*[LineSize]byte
	freeBufs []*[LineSize]byte

	hook    CommitHook
	commits *sim.Counter
}

func newMapDomain(layout Layout, backing *Backing, stats *sim.Stats) *mapDomain {
	return &mapDomain{
		layout:  layout,
		backing: backing,
		stats:   stats,
		pending: make(map[PhysAddr]*[LineSize]byte),
		commits: stats.Counter("persist.commit"),
	}
}

func (p *mapDomain) isNVM(pa PhysAddr) bool { return p.layout.KindOf(pa) == NVM }

func (p *mapDomain) pendingNVM(pa, line PhysAddr) (*[LineSize]byte, bool) {
	if !p.isNVM(pa) {
		return nil, false
	}
	buf, ok := p.pending[line]
	return buf, ok
}

func (p *mapDomain) Read(pa PhysAddr, dst []byte) {
	for len(dst) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(dst)) < n {
			n = uint64(len(dst))
		}
		if buf, ok := p.pendingNVM(pa, line); ok {
			copy(dst[:n], buf[off:off+n])
		} else {
			p.backing.Read(pa, dst[:n])
		}
		dst = dst[n:]
		pa += PhysAddr(n)
	}
}

func (p *mapDomain) Write(pa PhysAddr, src []byte) {
	for len(src) > 0 {
		line := LineBase(pa)
		off := uint64(pa - line)
		n := uint64(LineSize) - off
		if uint64(len(src)) < n {
			n = uint64(len(src))
		}
		if p.isNVM(pa) {
			buf, ok := p.pending[line]
			if !ok {
				if n := len(p.freeBufs); n > 0 {
					buf = p.freeBufs[n-1]
					p.freeBufs = p.freeBufs[:n-1]
				} else {
					buf = new([LineSize]byte)
				}
				p.backing.Read(line, buf[:]) // start from committed image
				p.pending[line] = buf
			}
			copy(buf[off:off+n], src[:n])
		} else {
			p.backing.Write(pa, src[:n])
		}
		src = src[n:]
		pa += PhysAddr(n)
	}
}

func (p *mapDomain) CommitLine(pa PhysAddr) {
	line := LineBase(pa)
	buf, ok := p.pending[line]
	if !ok {
		return
	}
	if p.hook != nil {
		d := p.hook.OnCommit(line)
		switch d.Outcome {
		case CommitNone:
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
				p.backing.Write(line, buf[:])
				p.release(line, buf)
				p.commits.Inc()
				panic(CommitCrash{Line: line})
			}
		}
	}
	p.backing.Write(line, buf[:])
	p.release(line, buf)
	p.commits.Inc()
}

func (p *mapDomain) release(line PhysAddr, buf *[LineSize]byte) {
	delete(p.pending, line)
	if len(p.freeBufs) < 1<<14 {
		p.freeBufs = append(p.freeBufs, buf)
	}
}

func (p *mapDomain) CommitRange(pa PhysAddr, size uint64) int {
	if size == 0 {
		return 0
	}
	n := 0
	for line := LineBase(pa); line < pa+PhysAddr(size); line += LineSize {
		if _, ok := p.pending[line]; ok {
			p.CommitLine(line)
			n++
		}
	}
	return n
}

func (p *mapDomain) CommitAll() int {
	lines := make([]PhysAddr, 0, len(p.pending))
	for line := range p.pending {
		lines = append(lines, line)
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	for _, line := range lines {
		p.CommitLine(line)
	}
	return len(lines)
}

func (p *mapDomain) PendingLines() int { return len(p.pending) }

func (p *mapDomain) PendingInRange(pa PhysAddr, size uint64) int {
	n := 0
	end := pa + PhysAddr(size)
	for line := range p.pending {
		if line >= pa && line < end {
			n++
		}
	}
	return n
}

func (p *mapDomain) Crash() {
	dropped := len(p.pending)
	for line, buf := range p.pending {
		p.release(line, buf)
	}
	p.pending = make(map[PhysAddr]*[LineSize]byte)
	p.stats.Add("persist.crash_lost_lines", uint64(dropped))
	p.backing.DropRange(p.layout.DRAMBase, p.layout.DRAMSize)
	p.stats.Inc("persist.crashes")
}

func (p *mapDomain) ReadCommitted(pa PhysAddr, dst []byte) {
	p.backing.Read(pa, dst)
}

// capture is the reference ControllerState.Pending: every pending line in
// address order.
func (p *mapDomain) capture() []PendingLineState {
	st := make([]PendingLineState, 0, len(p.pending))
	for line, buf := range p.pending {
		st = append(st, PendingLineState{Line: uint64(line), Data: *buf})
	}
	sort.Slice(st, func(i, j int) bool { return st[i].Line < st[j].Line })
	return st
}

// restore replaces the pending lines from a capture (no validation: the
// reference only ever restores its own captures).
func (p *mapDomain) restore(st []PendingLineState) {
	p.pending = make(map[PhysAddr]*[LineSize]byte, len(st))
	for i := range st {
		buf := new([LineSize]byte)
		*buf = st[i].Data
		p.pending[PhysAddr(st[i].Line)] = buf
	}
}
