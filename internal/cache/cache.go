// Package cache models the on-chip cache hierarchy of a Kindle machine:
// three levels of set-associative, write-back, write-allocate caches (32 KB
// L1, 512 KB L2, 2 MB LLC per the paper's gem5 configuration) plus the
// clwb-style cache-line write-back instruction the persistence schemes rely
// on.
//
// The caches are timing + coherence-of-durability models: they track which
// line addresses are resident and dirty, charge hit/miss latencies, and
// notify the memory controller's persist domain when a dirty NVM line
// becomes durable (explicit clwb or dirty eviction). Data contents live in
// the functional backing store — a single-core machine needs no functional
// coherence in the caches themselves.
package cache

import (
	"fmt"

	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/spare"
)

// Level is a single set-associative cache.
//
// The tag store is flat: set si owns lines[si*ways : (si+1)*ways], one
// word per way, kept in recency order with the most recently used line
// first. A word is the line's base address with the dirty flag in bit 0
// (line bases are LineSize-aligned, so the low bits are free), and empty
// ways hold emptyWay at the set's tail. A hit moves its word to the
// front and a fill shifts the set down one way, so the least recently
// used line is always the last word: eviction needs no scan and no
// per-way timestamp, and a 16-way set spans two host cache lines.
type Level struct {
	name    string
	sets    int
	ways    int
	latency sim.Cycles

	lines   []uint64 // flat sets*ways tag store, recency-ordered per set
	setMask uint64   // sets-1 when sets is a power of two, else 0 (use modulo)

	evicts *sim.Counter // "cache.<name>.evict", resolved once
}

const (
	dirtyBit = 1          // set in a way's word while the line is dirty
	emptyWay = ^uint64(0) // an unused way; never a line base
)

// Config describes one cache level.
type Config struct {
	Name    string
	Size    uint64 // bytes
	Ways    int
	Latency sim.Cycles // access (hit) latency
}

// spareLines holds the tag stores of released levels, filed by length,
// for the next level built with as many lines (see Hierarchy.Release).
var spareLines spare.List[int, []uint64]

// NewLevel builds one cache level, on a released level's tag store when
// one of its size is spare. Size must be a non-zero multiple of
// Ways*LineSize.
func NewLevel(cfg Config, stats *sim.Stats) *Level {
	linesTotal := int(cfg.Size / mem.LineSize)
	if cfg.Ways <= 0 || linesTotal == 0 || linesTotal%cfg.Ways != 0 {
		panic(fmt.Sprintf("cache: bad geometry for %s: %d lines, %d ways", cfg.Name, linesTotal, cfg.Ways))
	}
	lines, ok := spareLines.Get(linesTotal)
	if !ok {
		lines = make([]uint64, linesTotal)
	}
	sets := linesTotal / cfg.Ways
	l := &Level{
		name:    cfg.Name,
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		lines:   lines,
		evicts:  stats.Counter("cache." + cfg.Name + ".evict"),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	l.reset() // every way, recycled or fresh, starts empty
	return l
}

func (l *Level) setIndex(addr mem.PhysAddr) int {
	if l.setMask != 0 || l.sets == 1 {
		return int((uint64(addr) / mem.LineSize) & l.setMask)
	}
	return int((uint64(addr) / mem.LineSize) % uint64(l.sets))
}

// set returns the ways of the set the line base addr maps to.
func (l *Level) set(addr mem.PhysAddr) []uint64 {
	b := l.setIndex(addr) * l.ways
	return l.lines[b : b+l.ways]
}

// find returns the way of set holding the line base addr, or -1.
func find(set []uint64, addr mem.PhysAddr) int {
	for i, w := range set {
		if w&^dirtyBit == uint64(addr) {
			return i
		}
	}
	return -1
}

// Probe reports residency without touching recency order or stats.
func (l *Level) Probe(addr mem.PhysAddr) bool {
	addr = mem.LineBase(addr)
	return find(l.set(addr), addr) >= 0
}

// access touches addr; returns hit. A hit moves the line to the front of
// its set and marks it dirty when write.
func (l *Level) access(addr mem.PhysAddr, write bool) bool {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false
	}
	w := set[i]
	if write {
		w |= dirtyBit
	}
	for ; i > 0; i-- {
		set[i] = set[i-1]
	}
	set[0] = w
	return true
}

// fill inserts addr, which must not be resident, at the front of its set.
// A full set evicts its last, least recently used, line; the evicted line
// (if any, with its dirty bit) is returned.
func (l *Level) fill(addr mem.PhysAddr, dirty bool) (victim mem.PhysAddr, victimDirty, evicted bool) {
	set := l.set(addr)
	last := set[len(set)-1]
	copy(set[1:], set)
	set[0] = uint64(addr)
	if dirty {
		set[0] |= dirtyBit
	}
	if last == emptyWay {
		return 0, false, false
	}
	return mem.PhysAddr(last &^ dirtyBit), last&dirtyBit != 0, true
}

// invalidate removes addr, closing the gap so the set stays in recency
// order, and reports whether it was present and dirty.
func (l *Level) invalidate(addr mem.PhysAddr) (present, dirty bool) {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false, false
	}
	dirty = set[i]&dirtyBit != 0
	copy(set[i:], set[i+1:])
	set[len(set)-1] = emptyWay
	return true, dirty
}

// clean clears the dirty bit of addr if resident; reports prior dirtiness.
func (l *Level) clean(addr mem.PhysAddr) (present, wasDirty bool) {
	return l.mark(addr, 0)
}

// cleanToDirty marks addr dirty if resident; reports prior dirtiness.
func (l *Level) cleanToDirty(addr mem.PhysAddr) (present, wasDirty bool) {
	return l.mark(addr, dirtyBit)
}

// mark sets addr's dirty bit to dirty (0 or dirtyBit) if resident, in
// place: neither kind of write-back is a use, so recency order is kept.
func (l *Level) mark(addr mem.PhysAddr, dirty uint64) (present, wasDirty bool) {
	set := l.set(addr)
	i := find(set, addr)
	if i < 0 {
		return false, false
	}
	wasDirty = set[i]&dirtyBit != 0
	set[i] = set[i]&^dirtyBit | dirty
	return true, wasDirty
}

// reset empties the level, keeping the backing array.
func (l *Level) reset() {
	for i := range l.lines {
		l.lines[i] = emptyWay
	}
}

// release hands the level's tag store to the next level built with as many
// lines and leaves this one without, so any later lookup panics instead of
// reading a store another level owns. Releasing twice is harmless.
func (l *Level) release() {
	if l.lines != nil {
		spareLines.Put(len(l.lines), l.lines)
		l.lines = nil
	}
}
