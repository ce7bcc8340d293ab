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
// 32-bit word per way, kept in recency order with the most recently used
// line first. A word is the line number shifted up one bit, with the
// dirty flag in bit 0, and empty ways hold emptyWay at the set's tail. An
// access scans the set once, shifting the ways it passes down one: a hit
// ends at its line, which goes to the front, and a miss shifts the whole
// set and fills the front, so the least recently used line is always the
// one pushed out of the last way. Eviction needs no scan and no per-way
// timestamp. A 16-way set fills one 64-byte host cache line, and the
// default L1 and L2 tag stores together take 34 KiB.
type Level struct {
	name    string
	sets    int
	ways    int
	latency sim.Cycles

	lines   []uint32 // flat sets*ways tag store, recency-ordered per set
	setMask uint64   // sets-1 when sets is a power of two, else 0 (use modulo)

	evicts *sim.Counter // "cache.<name>.evict", resolved once
}

const (
	dirtyBit = 1          // set in a way's word while the line is dirty
	emptyWay = ^uint32(0) // an unused way; no line below wayLimit has this word
)

// wayLimit is the first address a way cannot name: its line's word, with
// the dirty flag set, would be emptyWay. NewHierarchy refuses memory that
// reaches past it.
const wayLimit = mem.PhysAddr(emptyWay>>1) * mem.LineSize

// lineWord returns the clean way word of the line base addr.
func lineWord(addr mem.PhysAddr) uint32 {
	return uint32(addr/mem.LineSize) << 1
}

// lineAddr returns the line base a way word names.
func lineAddr(w uint32) mem.PhysAddr {
	return mem.PhysAddr(w>>1) * mem.LineSize
}

// Config describes one cache level.
type Config struct {
	Name    string
	Size    uint64 // bytes
	Ways    int
	Latency sim.Cycles // access (hit) latency
}

// spareLines holds the tag stores of released levels, filed by length,
// for the next level built with as many lines (see Hierarchy.Release).
var spareLines spare.List[int, []uint32]

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
		lines = make([]uint32, linesTotal)
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
func (l *Level) set(addr mem.PhysAddr) []uint32 {
	b := l.setIndex(addr) * l.ways
	return l.lines[b : b+l.ways]
}

// find returns the way of set holding the line of clean word w, or -1.
func find(set []uint32, w uint32) int {
	for i, x := range set {
		if x&^dirtyBit == w {
			return i
		}
	}
	return -1
}

// Probe reports residency without touching recency order or stats.
func (l *Level) Probe(addr mem.PhysAddr) bool {
	addr = mem.LineBase(addr)
	return find(l.set(addr), lineWord(addr)) >= 0
}

// access probes set for the line of clean word w, shifting each way it
// passes down one, and leaves that line in the first way. A hit stops at
// the line, marks it dirty when write and returns emptyWay as victim. A
// miss has shifted the whole set: it writes fill, the word the line
// enters with, into the first way and returns the word pushed out of the
// last, emptyWay if that way was empty, for the caller to dispose of.
func access(set []uint32, w, fill uint32, write bool) (hit bool, victim uint32) {
	prev := set[0]
	if prev&^dirtyBit == w {
		if write {
			set[0] = prev | dirtyBit
		}
		return true, emptyWay
	}
	for i := 1; i < len(set); i++ {
		x := set[i]
		set[i] = prev
		if x&^dirtyBit == w {
			if write {
				x |= dirtyBit
			}
			set[0] = x
			return true, emptyWay
		}
		prev = x
	}
	set[0] = fill
	return false, prev
}

// invalidate removes addr, closing the gap so the set stays in recency
// order, and reports whether it was present and dirty.
func (l *Level) invalidate(addr mem.PhysAddr) (present, dirty bool) {
	set := l.set(addr)
	i := find(set, lineWord(addr))
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
func (l *Level) mark(addr mem.PhysAddr, dirty uint32) (present, wasDirty bool) {
	set := l.set(addr)
	i := find(set, lineWord(addr))
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
