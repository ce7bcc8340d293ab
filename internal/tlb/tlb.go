// Package tlb models the translation lookaside buffers of a Kindle core.
//
// The paper's prototypes both extend the TLB: SSP adds an alternate
// physical-page field plus `updated`/`current` bitmaps per entry (one bit
// per 64-byte sub-page line), and HSCC adds a per-page access counter that
// is spilled to the page table on eviction. Entry therefore carries those
// extension fields, and eviction is observable through a hook so the
// prototypes can write metadata back.
package tlb

import (
	"fmt"
	"math/bits"

	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/spare"
)

// Entry is one TLB translation with Kindle's prototype extensions.
//
// Entries live in a pool owned by the TLB and never move between levels:
// a promotion or demotion moves a tag word, not the entry. An *Entry
// returned by Lookup or Insert therefore stays valid for as long as its
// translation is anywhere in the TLB.
type Entry struct {
	VPN uint64 // virtual page number
	PFN uint64 // physical frame number

	// SSP extension (Shadow Sub-Paging): the alternate physical page, and
	// the per-line bitmaps. Updated marks lines written in the current
	// consistency interval; Current marks which physical copy holds the
	// latest version of each line.
	SSPAlt     uint64
	SSPUpdated uint64
	SSPCurrent uint64

	// HSCC extension: access counter incremented on LLC miss for this
	// page; written back to the PTE/lookup table on eviction or once per
	// migration interval.
	AccessCount  uint32
	CountSpilled bool // already written out this interval

	Writable bool
	NVM      bool // translation targets NVM (set from the VMA kind)
	SSPValid bool // extension fields populated
}

// EvictFn observes an entry leaving the TLB (capacity eviction or explicit
// invalidation). SSP uses it to push bitmaps to the SSP cache; HSCC uses it
// to spill the access count.
type EvictFn func(e *Entry)

// Config sizes one TLB level.
type Config struct {
	Name    string
	Entries int
	Ways    int
	Latency sim.Cycles
}

// A tag word is a translation's VPN above idxBits and its pool index
// below. A VPN of a 64-bit address with 4 KiB pages has at most 52 bits,
// so both always fit; New refuses a pool that does not fit in idxBits.
const (
	idxBits = 12
	idxMask = 1<<idxBits - 1
	maxVPN  = 1<<(64-idxBits) - 1
)

// A set's recency order is one word of 4-bit slot numbers, so a level has
// at most maxWays ways; nibbles has a 1 in every nibble.
const (
	maxWays = 16
	nibbles = 0x1111111111111111
)

// level is one set-associative TLB level. It holds pool indices, not
// entries:
//
//   - words[si*ways : si*ways+lens[si]] holds set si's tag words in slot
//     order. A fill appends at lens[si] or takes over its victim's slot,
//     and a removal moves the set's last word into the gap, so a word
//     stays in its slot for as long as it is resident. forEach visits
//     entries in slot order, which SSP's interval end turns into timed
//     metadata writes, so it is kept exactly as the stamp-LRU TLB laid
//     its entries out.
//   - recency[si] lists set si's slots from most to least recently used,
//     one 4-bit slot number per position, the most recent in the low
//     nibble. A hit, fill or removal rewrites this one word instead of
//     shifting tag words, and the least recently used slot is the nibble
//     at position lens[si]-1: eviction needs no scan and no per-entry
//     stamp. Nibbles at lens[si] and above are stale; no result depends
//     on them.
type level struct {
	name    string
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)
	ways    int
	latency sim.Cycles

	levelStore

	evicts *sim.Counter // "tlb.<name>.evict", resolved once
}

// levelStore is a level's storage, sized by its geometry.
type levelStore struct {
	words   []uint64
	recency []uint64
	lens    []int32
}

// newLevel checks cfg and builds a level without storage; New gives it
// some.
func newLevel(cfg Config, stats *sim.Stats) level {
	if cfg.Entries <= 0 || cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry for %s", cfg.Name))
	}
	if cfg.Ways > maxWays {
		panic(fmt.Sprintf("tlb: %s has %d ways, more than the %d a set's recency word can order",
			cfg.Name, cfg.Ways, maxWays))
	}
	sets := cfg.Entries / cfg.Ways
	l := level{
		name:    cfg.Name,
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		evicts:  stats.Counter("tlb." + cfg.Name + ".evict"),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

func (l *level) newStore() levelStore {
	return levelStore{
		words:   make([]uint64, l.sets*l.ways),
		recency: make([]uint64, l.sets),
		lens:    make([]int32, l.sets),
	}
}

func (l *level) setIndex(vpn uint64) int {
	if l.setMask != 0 || l.sets == 1 {
		return int(vpn & l.setMask)
	}
	return int(vpn % uint64(l.sets))
}

// position returns the bit offset of the lowest nibble of order that
// holds slot number j. remove passes a j that one of the set's first lens
// nibbles holds, so the stale nibbles above are never reached. x has a
// zero nibble wherever order holds j, and subtracting 1 from every nibble
// of x sets the high bit of the lowest zero nibble, and of no nibble below
// it, before any borrow can reach a nibble above it.
func position(order, j uint64) uint {
	x := order ^ j*nibbles
	return uint(bits.TrailingZeros64((x-nibbles)&^x&(nibbles<<3))) &^ 3
}

// lookup returns vpn's tag word and makes its slot the most recently used.
// It probes the slots in recency order, so a hit on the most recent slot,
// the common case, costs one probe and writes nothing.
func (l *level) lookup(vpn uint64) (uint64, bool) {
	si := l.setIndex(vpn)
	set := l.words[si*l.ways : (si+1)*l.ways]
	n, o := uint(l.lens[si]), l.recency[si]
	for k, x := uint(0), o; k < n; k, x = k+1, x>>4 {
		j := x & 15
		if w := set[j]; w>>idxBits == vpn {
			if k > 0 {
				// Move j's nibble to the front; those before it move
				// up one position.
				m := uint64(1)<<(4*k+4) - 1
				l.recency[si] = o&^m | o<<4&m | j
			}
			return w, true
		}
	}
	return 0, false
}

// fill puts w, whose VPN must not be resident, in a slot of its set and
// makes that slot the most recently used. A full set evicts the word of
// its least recently used slot, which w takes over; the victim's word is
// returned.
func (l *level) fill(w uint64) (victim uint64, evicted bool) {
	si := l.setIndex(w >> idxBits)
	b := si * l.ways
	n := int(l.lens[si])
	o := l.recency[si]
	j := n // the slot w takes
	if n == l.ways {
		j = int(o >> (4 * (n - 1)) & 15)
		victim, evicted = l.words[b+j], true
		l.evicts.Inc()
	} else {
		l.lens[si] = int32(n + 1)
	}
	l.words[b+j] = w
	l.recency[si] = o<<4 | uint64(j)
	return victim, evicted
}

// remove takes vpn out of its set, moving the set's last word into the
// freed slot, and returns its word. Like lookup, it probes the slots in
// recency order.
func (l *level) remove(vpn uint64) (uint64, bool) {
	si := l.setIndex(vpn)
	set := l.words[si*l.ways : (si+1)*l.ways]
	n, o := uint(l.lens[si]), l.recency[si]
	for k, x := uint(0), o; k < n; k, x = k+1, x>>4 {
		j := x & 15
		if w := set[j]; w>>idxBits == vpn {
			// Drop j's nibble; those after it move down one position.
			m := uint64(1)<<(4*k) - 1
			o = o>>4&^m | o&m
			if last := uint64(n - 1); j != last {
				// The last slot's word moves to slot j, so its nibble
				// is renamed from last to j.
				set[j] = set[last]
				o ^= (j ^ last) << position(o, last)
			}
			l.recency[si] = o
			l.lens[si] = int32(n - 1)
			return w, true
		}
	}
	return 0, false
}

func (l *level) reset() {
	clear(l.lens)
}

// forEach visits every entry of the level in slot order (mutable).
func (l *level) forEach(pool []Entry, fn func(e *Entry)) {
	for si, n := range l.lens {
		for _, w := range l.words[si*l.ways : si*l.ways+int(n)] {
			fn(&pool[w&idxMask])
		}
	}
}

// TLB is the two-level translation cache (64-entry L1 dTLB, 1536-entry L2
// STLB, conventional sizes for the simulated core). The levels are
// exclusive: a translation is resident in at most one of them.
type TLB struct {
	l1, l2  level
	geom    geometry
	onEvict EvictFn

	// pool holds every live translation at a fixed index, and
	// free[:nfree] lists the unused indices. It has one entry more than
	// both levels together, so a fill into a full TLB can take its entry
	// before the L2 victim gives one back.
	pool  []Entry
	free  []uint16
	nfree int

	l1Hit, l1Miss *sim.Counter
	l2Hit, l2Miss *sim.Counter
	invalidates   *sim.Counter
	flushes       *sim.Counter
}

// DefaultConfigL1 is a 64-entry 4-way L1 dTLB with 1-cycle lookup.
func DefaultConfigL1() Config { return Config{Name: "l1", Entries: 64, Ways: 4, Latency: 1} }

// DefaultConfigL2 is a 1536-entry 12-way STLB with 7-cycle lookup.
func DefaultConfigL2() Config { return Config{Name: "l2", Entries: 1536, Ways: 12, Latency: 7} }

// store is all of a TLB's storage, every array sized by the geometry of
// its two levels: what New allocates and Release hands on.
type store struct {
	l1, l2 levelStore
	pool   []Entry
	free   []uint16
}

// geometry files spare stores: TLBs of one geometry have stores of one
// size.
type geometry struct{ entries1, ways1, entries2, ways2 int }

// spareStores holds released TLBs' stores for the next TLB of their
// geometry (see Release).
var spareStores spare.List[geometry, store]

// New builds the two-level TLB, on a released TLB's storage when one of
// this geometry is spare. It panics on a level without entries, on
// entries that do not divide into ways, on a level of more than 16 ways,
// and on levels too large together for a pool index to name every entry.
func New(l1, l2 Config, stats *sim.Stats) *TLB {
	t := &TLB{
		l1: newLevel(l1, stats), l2: newLevel(l2, stats),
		geom:  geometry{l1.Entries, l1.Ways, l2.Entries, l2.Ways},
		l1Hit: stats.Counter("tlb.l1.hit"), l1Miss: stats.Counter("tlb.l1.miss"),
		l2Hit: stats.Counter("tlb.l2.hit"), l2Miss: stats.Counter("tlb.l2.miss"),
		invalidates: stats.Counter("tlb.invalidate"),
		flushes:     stats.Counter("tlb.flush_all"),
	}
	n := l1.Entries + l2.Entries + 1
	if n > 1<<idxBits {
		panic(fmt.Sprintf("tlb: %s and %s hold %d entries, more than %d-bit pool indices can name",
			l1.Name, l2.Name, n-1, idxBits))
	}
	st, ok := spareStores.Get(t.geom)
	if ok {
		// Every word as a fresh allocation leaves it: zero, except the
		// free list, which freeAll rebuilds below either way.
		for _, ls := range []levelStore{st.l1, st.l2} {
			clear(ls.words)
			clear(ls.recency)
			clear(ls.lens)
		}
		clear(st.pool)
	} else {
		st = store{
			l1:   t.l1.newStore(),
			l2:   t.l2.newStore(),
			pool: make([]Entry, n),
			free: make([]uint16, n),
		}
	}
	t.l1.levelStore, t.l2.levelStore = st.l1, st.l2
	t.pool, t.free = st.pool, st.free
	t.freeAll()
	return t
}

// Release hands the TLB's storage to the next TLB built with the same
// geometry. The TLB must not be used again: every lookup, insert or
// invalidation panics, and entries it returned are no longer its own. A
// capture taken earlier holds copies and stays valid. Releasing twice is
// harmless.
func (t *TLB) Release() {
	if t.pool == nil {
		return
	}
	spareStores.Put(t.geom, store{l1: t.l1.levelStore, l2: t.l2.levelStore, pool: t.pool, free: t.free})
	t.l1.levelStore, t.l2.levelStore = levelStore{}, levelStore{}
	t.pool, t.free = nil, nil
}

// NewDefault builds the TLB with default geometry.
func NewDefault(stats *sim.Stats) *TLB {
	return New(DefaultConfigL1(), DefaultConfigL2(), stats)
}

func (t *TLB) freeAll() {
	for i := range t.free {
		t.free[i] = uint16(i)
	}
	t.nfree = len(t.free)
}

func (t *TLB) alloc() uint16 {
	t.nfree--
	return t.free[t.nfree]
}

func (t *TLB) release(p uint16) {
	t.free[t.nfree] = p
	t.nfree++
}

// SetEvictHook installs fn to observe entries leaving the whole TLB.
// An entry evicted from L1 falls into L2 (exclusive fill), so only L2
// evictions and explicit invalidations reach the hook.
func (t *TLB) SetEvictHook(fn EvictFn) { t.onEvict = fn }

// Lookup translates vpn. On hit it returns the entry (mutable — prototype
// extensions update counters in place) and the lookup latency. On miss the
// entry is nil and latency covers both level probes; the caller walks the
// page table and calls Insert.
func (t *TLB) Lookup(vpn uint64) (*Entry, sim.Cycles) {
	if w, ok := t.l1.lookup(vpn); ok {
		t.l1Hit.Inc()
		return &t.pool[w&idxMask], t.l1.latency
	}
	t.l1Miss.Inc()
	if w, ok := t.l2.remove(vpn); ok {
		t.l2Hit.Inc()
		t.fillL1(w)
		return &t.pool[w&idxMask], t.l1.latency + t.l2.latency
	}
	t.l2Miss.Inc()
	return nil, t.l1.latency + t.l2.latency
}

// fillL1 puts w at the front of its L1 set. An L1 victim is demoted to
// the front of its L2 set, and an L2 victim leaves the TLB (exclusive
// two-level fill).
func (t *TLB) fillL1(w uint64) {
	v, evicted := t.l1.fill(w)
	if !evicted {
		return
	}
	if v, evicted = t.l2.fill(v); evicted {
		t.evict(uint16(v & idxMask))
	}
}

// evict shows pool entry p, already unlinked from its level, to the evict
// hook and frees it. The hook sees the pool entry itself, so evicting
// allocates nothing.
func (t *TLB) evict(p uint16) {
	if t.onEvict != nil {
		t.onEvict(&t.pool[p])
	}
	t.release(p)
}

// Insert installs a fresh translation (after a page-table walk) at the
// front of its L1 set and returns the live entry, without counting a hit
// or charging lookup latency: hardware completes a walked translation
// from the walk result, it does not re-probe the TLB it just filled. A
// resident copy of e.VPN is dropped first, without the evict hook, so a
// VPN is never resident twice. Insert panics on a VPN wider than 52 bits.
func (t *TLB) Insert(e Entry) *Entry {
	if e.VPN > maxVPN {
		panic(fmt.Sprintf("tlb: VPN %#x wider than %d bits", e.VPN, 64-idxBits))
	}
	if w, ok := t.l1.remove(e.VPN); ok {
		t.release(uint16(w & idxMask))
	} else if w, ok := t.l2.remove(e.VPN); ok {
		t.release(uint16(w & idxMask))
	}
	p := t.alloc()
	t.pool[p] = e
	t.fillL1(e.VPN<<idxBits | uint64(p))
	return &t.pool[p]
}

// Invalidate removes vpn from the TLB, firing the evict hook if the
// translation was present (the OS invalidates after PTE changes; prototype
// metadata must be saved first, as in the paper's SSP design where
// TLB-evicted entries are marked in the SSP cache).
func (t *TLB) Invalidate(vpn uint64) bool {
	w, ok := t.l1.remove(vpn)
	if !ok {
		w, ok = t.l2.remove(vpn)
	}
	if !ok {
		return false
	}
	t.evict(uint16(w & idxMask))
	t.invalidates.Inc()
	return true
}

// InvalidateAll flushes the whole TLB (context switch / global shootdown),
// firing the evict hook per entry in ForEach order.
func (t *TLB) InvalidateAll() {
	if t.onEvict != nil {
		t.ForEach(t.onEvict)
	}
	t.Reset()
	t.flushes.Inc()
}

// ForEach visits every live entry, L1 then L2, each set in slot order
// (prototypes scan the TLB at interval boundaries: SSP harvests bitmaps,
// HSCC spills counters).
func (t *TLB) ForEach(fn func(e *Entry)) {
	t.l1.forEach(t.pool, fn)
	t.l2.forEach(t.pool, fn)
}

// Reset empties the TLB without firing hooks (power loss).
func (t *TLB) Reset() {
	t.l1.reset()
	t.l2.reset()
	t.freeAll()
}

// PageOffsetLineBit returns the bit index (0..63) of the sub-page line that
// virtual address va falls in — the bit SSP sets in the Updated bitmap.
func PageOffsetLineBit(va uint64) uint {
	return uint((va % mem.PageSize) / mem.LineSize)
}
