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

	"kindle/internal/mem"
	"kindle/internal/sim"
)

// Entry is one TLB translation with Kindle's prototype extensions.
//
// Field order is deliberate: VPN and lru lead so the tag compares and LRU
// loads of a set scan land in the same host cache line per entry, and the
// bool/uint32 fields pack at the tail, keeping the entry at 56 bytes —
// the set scans in lookup/insert/take are the hottest loops in the TLB.
type Entry struct {
	VPN uint64 // virtual page number
	lru uint64
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

// level is one set-associative TLB.
type level struct {
	name    string
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)
	ways    int
	latency sim.Cycles
	// Flat tag store: set si owns store[si*ways : si*ways+lens[si]].
	// Counting occupancy in lens instead of reslicing per-set slices
	// keeps the promote/demote churn free of slice-header writes (and
	// their GC barriers); entry pointers are stable for the life of the
	// level.
	store []Entry
	lens  []int32
	clock uint64
	stats *sim.Stats

	// mru[set] is the way index of the set's last hit or fill — a probe
	// hint only, always verified against the tag before use, so it can
	// dangle after invalidations without affecting simulated state.
	mru    []int32
	mruOff bool // disables the MRU fast probe (equivalence testing)

	evicts *sim.Counter // "tlb.<name>.evict", resolved once
}

func newLevel(cfg Config, stats *sim.Stats) *level {
	if cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic(fmt.Sprintf("tlb: bad geometry for %s", cfg.Name))
	}
	sets := cfg.Entries / cfg.Ways
	l := &level{
		name:    cfg.Name,
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		store:   make([]Entry, sets*cfg.Ways),
		lens:    make([]int32, sets),
		mru:     make([]int32, sets),
		stats:   stats,
		evicts:  stats.Counter("tlb." + cfg.Name + ".evict"),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

func (l *level) setIndex(vpn uint64) int {
	if l.setMask != 0 || l.sets == 1 {
		return int(vpn & l.setMask)
	}
	return int(vpn % uint64(l.sets))
}

func (l *level) lookup(vpn uint64) *Entry {
	si := l.setIndex(vpn)
	set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
	if !l.mruOff {
		// Probe the last-hit way before scanning the set: replay streams
		// hit the same translation repeatedly, so the hint almost always
		// verifies. The hit-side effects are identical to a scan hit.
		if m := l.mru[si]; int(m) < len(set) && set[m].VPN == vpn {
			l.clock++
			set[m].lru = l.clock
			return &set[m]
		}
	}
	for i := range set {
		if set[i].VPN == vpn {
			l.clock++
			set[i].lru = l.clock
			l.mru[si] = int32(i)
			return &set[i]
		}
	}
	return nil
}

// insert installs e and returns a pointer to its live slot. When the set
// was full the evicted entry is returned by value (evicted=true); the
// caller demotes or drops it. Returning the victim instead of firing a
// callback keeps it on the stack — the old closure-based hook forced a
// heap allocation per eviction. The same-VPN and LRU scans are fused into
// one pass; the outcome is identical to scanning twice because a same-VPN
// match returns before the LRU result is ever used.
func (l *level) insert(e Entry) (slot *Entry, victim Entry, evicted bool) {
	si := l.setIndex(e.VPN)
	b := si * l.ways
	n := int(l.lens[si])
	set := l.store[b : b+n]
	l.clock++
	e.lru = l.clock
	lruIdx := 0
	for i := range set {
		// Replace an existing translation for the same VPN.
		if set[i].VPN == e.VPN {
			set[i] = e
			l.mru[si] = int32(i)
			return &set[i], Entry{}, false
		}
		if set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	if n < l.ways {
		l.store[b+n] = e
		l.lens[si] = int32(n + 1)
		l.mru[si] = int32(n)
		return &l.store[b+n], Entry{}, false
	}
	victim = set[lruIdx]
	set[lruIdx] = e
	l.mru[si] = int32(lruIdx)
	l.evicts.Inc()
	return &set[lruIdx], victim, true
}

// take removes and returns the entry for vpn, touching it exactly as
// lookup would first (clock advance + LRU stamp on the returned copy), so
// a lookup-then-invalidate pair collapses into one set scan with
// bit-identical level state.
func (l *level) take(vpn uint64) (Entry, bool) {
	si := l.setIndex(vpn)
	set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
	for i := range set {
		if set[i].VPN == vpn {
			l.clock++
			victim := set[i]
			victim.lru = l.clock
			set[i] = set[len(set)-1]
			l.lens[si]--
			return victim, true
		}
	}
	return Entry{}, false
}

func (l *level) invalidate(vpn uint64) (Entry, bool) {
	si := l.setIndex(vpn)
	set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
	for i := range set {
		if set[i].VPN == vpn {
			victim := set[i]
			set[i] = set[len(set)-1]
			l.lens[si]--
			return victim, true
		}
	}
	return Entry{}, false
}

func (l *level) reset() {
	for i := range l.lens {
		l.lens[i] = 0
	}
}

// forEach visits every entry (mutable).
func (l *level) forEach(fn func(e *Entry)) {
	for si := range l.lens {
		set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
		for i := range set {
			fn(&set[i])
		}
	}
}

// TLB is the two-level translation cache (64-entry L1 dTLB, 1536-entry L2
// STLB, conventional sizes for the simulated core).
type TLB struct {
	l1, l2  *level
	stats   *sim.Stats
	onEvict EvictFn

	// gen counts structural changes (inserts, promotions, invalidations,
	// resets). A cached *Entry obtained from Lookup stays valid exactly
	// while gen is unchanged — the core's last-translation cache keys on
	// it.
	gen uint64

	l1Hit, l1Miss *sim.Counter
	l2Hit, l2Miss *sim.Counter
	invalidates   *sim.Counter
	flushes       *sim.Counter
}

// DefaultConfigL1 is a 64-entry 4-way L1 dTLB with 1-cycle lookup.
func DefaultConfigL1() Config { return Config{Name: "l1", Entries: 64, Ways: 4, Latency: 1} }

// DefaultConfigL2 is a 1536-entry 12-way STLB with 7-cycle lookup.
func DefaultConfigL2() Config { return Config{Name: "l2", Entries: 1536, Ways: 12, Latency: 7} }

// New builds the two-level TLB.
func New(l1, l2 Config, stats *sim.Stats) *TLB {
	return &TLB{
		l1: newLevel(l1, stats), l2: newLevel(l2, stats), stats: stats,
		l1Hit: stats.Counter("tlb.l1.hit"), l1Miss: stats.Counter("tlb.l1.miss"),
		l2Hit: stats.Counter("tlb.l2.hit"), l2Miss: stats.Counter("tlb.l2.miss"),
		invalidates: stats.Counter("tlb.invalidate"),
		flushes:     stats.Counter("tlb.flush_all"),
	}
}

// NewDefault builds the TLB with default geometry.
func NewDefault(stats *sim.Stats) *TLB {
	return New(DefaultConfigL1(), DefaultConfigL2(), stats)
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
	if e := t.l1.lookup(vpn); e != nil {
		t.l1Hit.Inc()
		return e, t.l1.latency
	}
	t.l1Miss.Inc()
	if promoted, ok := t.l2.take(vpn); ok {
		t.l2Hit.Inc()
		// Promote to L1; the L1 victim falls back into L2. Entries move,
		// so previously returned pointers go stale.
		t.gen++
		e1, v, evicted := t.l1.insert(promoted)
		if evicted {
			t.demote(v)
		}
		// Re-touch exactly as the pre-insert code's trailing L1 lookup
		// did, so LRU state stays bit-identical without the set scan.
		t.l1.clock++
		e1.lru = t.l1.clock
		return e1, t.l1.latency + t.l2.latency
	}
	t.l2Miss.Inc()
	return nil, t.l1.latency + t.l2.latency
}

// demote drops an L1 victim into L2, firing the whole-TLB evict hook when
// that in turn pushes an entry out of L2 (exclusive two-level fill). The
// escaping copy for the hook is made only on the evict branch so the
// common no-evict demote stays allocation-free.
func (t *TLB) demote(v Entry) {
	_, v2, evicted := t.l2.insert(v)
	if evicted && t.onEvict != nil {
		hooked := v2
		t.onEvict(&hooked)
	}
}

// Gen returns the structural generation. It advances whenever entries may
// have moved (Insert, L2→L1 promotion, invalidation, reset); an *Entry
// returned by Lookup is safe to retain only while Gen is unchanged.
func (t *TLB) Gen() uint64 { return t.gen }

// FastHit re-touches an entry known (by an unchanged Gen) to still sit in
// L1: it refreshes the entry's LRU stamp, counts an L1 hit and returns the
// L1 latency — state-for-state what a full Lookup hit on the entry would
// do, without the set scan. The core's last-translation cache is the only
// intended caller.
func (t *TLB) FastHit(e *Entry) sim.Cycles {
	t.l1.clock++
	e.lru = t.l1.clock
	t.l1Hit.Inc()
	return t.l1.latency
}

// Insert installs a fresh translation (after a page-table walk) into L1.
func (t *TLB) Insert(e Entry) {
	t.InsertAndGet(e)
}

// InsertAndGet installs a fresh translation into L1 and returns the live
// entry, without counting a hit or charging lookup latency: hardware
// completes a walked translation from the walk result, it does not re-probe
// the TLB it just filled. The core's translate path uses this to finish a
// miss; the returned pointer is valid until Gen next changes.
func (t *TLB) InsertAndGet(e Entry) *Entry {
	t.gen++
	slot, v, evicted := t.l1.insert(e)
	if evicted {
		t.demote(v)
	}
	return slot
}

// SetMRUProbe enables or disables the per-set last-hit-way fast probe in
// both levels (on by default). The probe is semantically invisible — hit
// order, LRU stamps and stats are identical either way — so the switch
// exists only for the equivalence tests that pin that claim.
func (t *TLB) SetMRUProbe(on bool) {
	t.l1.mruOff = !on
	t.l2.mruOff = !on
}

// Invalidate removes vpn from both levels, firing the evict hook if the
// translation was present (the OS invalidates after PTE changes; prototype
// metadata must be saved first, as in the paper's SSP design where
// TLB-evicted entries are marked in the SSP cache). As in demote, the
// escaping copy for the hook is made only inside the hook branch, so an
// unhooked invalidate stays allocation-free.
func (t *TLB) Invalidate(vpn uint64) bool {
	t.gen++
	found := false
	if v, ok := t.l1.invalidate(vpn); ok {
		found = true
		if t.onEvict != nil {
			hooked := v
			t.onEvict(&hooked)
		}
	}
	if v, ok := t.l2.invalidate(vpn); ok {
		found = true
		if t.onEvict != nil {
			hooked := v
			t.onEvict(&hooked)
		}
	}
	if found {
		t.invalidates.Inc()
	}
	return found
}

// InvalidateAll flushes the whole TLB (context switch / global shootdown),
// firing the evict hook per entry.
func (t *TLB) InvalidateAll() {
	t.gen++
	if t.onEvict != nil {
		t.l1.forEach(func(e *Entry) { t.onEvict(e) })
		t.l2.forEach(func(e *Entry) { t.onEvict(e) })
	}
	t.l1.reset()
	t.l2.reset()
	t.flushes.Inc()
}

// ForEach visits every live entry in both levels (prototypes scan the TLB
// at interval boundaries: SSP harvests bitmaps, HSCC spills counters).
func (t *TLB) ForEach(fn func(e *Entry)) {
	t.l1.forEach(fn)
	t.l2.forEach(fn)
}

// Reset empties the TLB without firing hooks (power loss).
func (t *TLB) Reset() {
	t.gen++
	t.l1.reset()
	t.l2.reset()
}

// PageOffsetLineBit returns the bit index (0..63) of the sub-page line that
// virtual address va falls in — the bit SSP sets in the Updated bitmap.
func PageOffsetLineBit(va uint64) uint {
	return uint((va % mem.PageSize) / mem.LineSize)
}
