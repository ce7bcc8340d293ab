package cache

import (
	"slices"
	"testing"

	"kindle/internal/mem"
	"kindle/internal/sim"
)

// refLevel is the timestamp-LRU cache level that Level replaced, kept
// verbatim (less its stats plumbing) as the reference FuzzCacheLevel
// checks the recency-ordered sets against. Only hits and fills re-stamp a
// line and every stamp is unique, while clean, cleanToDirty and the
// swap-remove invalidate keep the stamps' relative order, so the lowest
// stamp — the reference's victim — must always be the last line of
// Level's recency order.
//
// The tag store is flat: set si owns tags[si*ways : si*ways+lens[si]],
// each way a 16-byte {addr, lru} record, while dirty bits live in a small
// per-set bitmask array.
type refLevel struct {
	sets int
	ways int

	tags      []refWay // flat sets*ways tag store
	dirtyBits []uint32 // dirty bitmask per set (bit = way index)
	lens      []int32  // valid ways per set
	clock     uint64   // LRU timestamp source

	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)

	// mru[set] is the way index of the set's last hit or fill — a probe
	// hint only, always verified against the tag before use.
	mru []int32
}

type refWay struct {
	addr mem.PhysAddr // line base address
	lru  uint64       // LRU timestamp
}

func newRefLevel(cfg Config) *refLevel {
	linesTotal := int(cfg.Size / mem.LineSize)
	if cfg.Ways <= 0 || cfg.Ways > 32 || linesTotal%cfg.Ways != 0 {
		panic("refLevel: bad geometry")
	}
	sets := linesTotal / cfg.Ways
	l := &refLevel{
		sets:      sets,
		ways:      cfg.Ways,
		tags:      make([]refWay, sets*cfg.Ways),
		dirtyBits: make([]uint32, sets),
		lens:      make([]int32, sets),
		mru:       make([]int32, sets),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

func (l *refLevel) setIndex(addr mem.PhysAddr) int {
	if l.setMask != 0 || l.sets == 1 {
		return int((uint64(addr) / mem.LineSize) & l.setMask)
	}
	return int((uint64(addr) / mem.LineSize) % uint64(l.sets))
}

// lookup returns the set index and way index of addr, or way -1.
func (l *refLevel) lookup(addr mem.PhysAddr) (si, w int) {
	si = l.setIndex(addr)
	b := si * l.ways
	set := l.tags[b : b+int(l.lens[si])]
	for i := range set {
		if set[i].addr == addr {
			return si, i
		}
	}
	return si, -1
}

// Probe reports residency without touching LRU state.
func (l *refLevel) Probe(addr mem.PhysAddr) bool {
	_, w := l.lookup(mem.LineBase(addr))
	return w >= 0
}

// access touches addr; returns hit. On hit, LRU is refreshed and the line
// is marked dirty when write.
func (l *refLevel) access(addr mem.PhysAddr, write bool) bool {
	si := l.setIndex(addr)
	b := si * l.ways
	set := l.tags[b : b+int(l.lens[si])]
	// Probe the last-hit way before scanning the set.
	if m := int(l.mru[si]); m < len(set) && set[m].addr == addr {
		l.clock++
		set[m].lru = l.clock
		if write {
			l.dirtyBits[si] |= 1 << uint(m)
		}
		return true
	}
	for i := range set {
		if set[i].addr == addr {
			l.clock++
			set[i].lru = l.clock
			if write {
				l.dirtyBits[si] |= 1 << uint(i)
			}
			l.mru[si] = int32(i)
			return true
		}
	}
	return false
}

// fill inserts addr, evicting the LRU line if the set is full. The evicted
// line (if any, with its dirty bit) is returned.
func (l *refLevel) fill(addr mem.PhysAddr, dirty bool) (victim mem.PhysAddr, victimDirty, evicted bool) {
	si := l.setIndex(addr)
	b := si * l.ways
	n := int(l.lens[si])
	l.clock++
	if n < l.ways {
		l.tags[b+n] = refWay{addr: addr, lru: l.clock}
		l.setDirty(si, n, dirty)
		l.lens[si] = int32(n + 1)
		l.mru[si] = int32(n)
		return 0, false, false
	}
	// Evict LRU.
	set := l.tags[b : b+n]
	lruIdx := 0
	for i := 1; i < len(set); i++ {
		if set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	victim = set[lruIdx].addr
	victimDirty = l.dirtyBits[si]&(1<<uint(lruIdx)) != 0
	set[lruIdx] = refWay{addr: addr, lru: l.clock}
	l.setDirty(si, lruIdx, dirty)
	l.mru[si] = int32(lruIdx)
	return victim, victimDirty, true
}

// setDirty writes way w's dirty bit in set si.
func (l *refLevel) setDirty(si, w int, dirty bool) {
	if dirty {
		l.dirtyBits[si] |= 1 << uint(w)
	} else {
		l.dirtyBits[si] &^= 1 << uint(w)
	}
}

// invalidate removes addr (swap-remove with the set's last way),
// returning whether it was present and dirty.
func (l *refLevel) invalidate(addr mem.PhysAddr) (present, dirty bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	b := si * l.ways
	last := int(l.lens[si]) - 1
	dirty = l.dirtyBits[si]&(1<<uint(w)) != 0
	l.tags[b+w] = l.tags[b+last]
	l.setDirty(si, w, l.dirtyBits[si]&(1<<uint(last)) != 0)
	l.setDirty(si, last, false)
	l.lens[si] = int32(last)
	return true, dirty
}

// clean clears the dirty bit of addr if resident; reports prior dirtiness.
func (l *refLevel) clean(addr mem.PhysAddr) (present, wasDirty bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	wasDirty = l.dirtyBits[si]&(1<<uint(w)) != 0
	l.dirtyBits[si] &^= 1 << uint(w)
	return true, wasDirty
}

// cleanToDirty marks addr dirty if resident.
func (l *refLevel) cleanToDirty(addr mem.PhysAddr) (present, prev bool) {
	si, w := l.lookup(addr)
	if w < 0 {
		return false, false
	}
	prev = l.dirtyBits[si]&(1<<uint(w)) != 0
	l.dirtyBits[si] |= 1 << uint(w)
	return true, prev
}

// reset empties the level, keeping the backing arrays.
func (l *refLevel) reset() {
	for i := range l.lens {
		l.lens[i] = 0
		l.dirtyBits[i] = 0
	}
}

// recencyOrder renders set si the way a LevelState captures it: valid
// ways by descending stamp, each its address plus dirty bit, then empty
// ways. It fails the test if two ways share a stamp, since the order would
// then be ambiguous.
func (l *refLevel) recencyOrder(t *testing.T, si int) []uint64 {
	b := si * l.ways
	n := int(l.lens[si])
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(i, j int) int {
		switch a, c := l.tags[b+i].lru, l.tags[b+j].lru; {
		case a > c:
			return -1
		case a < c:
			return 1
		}
		t.Fatalf("set %d: ways %d and %d share stamp %d", si, i, j, l.tags[b+i].lru)
		return 0
	})
	out := make([]uint64, l.ways)
	for k, i := range idx {
		out[k] = uint64(l.tags[b+i].addr)
		if l.dirtyBits[si]&(1<<uint(i)) != 0 {
			out[k] |= dirtyBit
		}
	}
	for k := n; k < l.ways; k++ {
		out[k] = emptyState
	}
	return out
}

// fuzzGeometries are the level shapes FuzzCacheLevel picks from: 4 ways,
// the LLC's 16, the reference's widest (its dirty mask is 32 bits), and
// an 8-way level of 3 sets, which indexes by modulo instead of mask.
var fuzzGeometries = []Config{
	{Name: "w4", Size: 4 * 4 * mem.LineSize, Ways: 4},
	{Name: "w16", Size: 2 * 16 * mem.LineSize, Ways: 16},
	{Name: "w32", Size: 2 * 32 * mem.LineSize, Ways: 32},
	{Name: "s3w8", Size: 3 * 8 * mem.LineSize, Ways: 8},
}

// FuzzCacheLevel drives a Level and the timestamp-LRU refLevel through one
// byte program and requires every return value, and every set the
// program touches, to agree. A set is compared as captureState renders it
// for a snapshot, so a change to the captured layout fails here too. The
// first byte picks the geometry; each following pair is an opcode byte
// and a line byte. The line is drawn from twice the level's capacity, so
// hits, evictions and absent lines all stay frequent. Opcodes (low
// nibble): 0-7 access, which fills on a miss as Hierarchy does, against
// the reference's access and then fill on a miss (bit 4 makes it a
// write); 8-9 invalidate; 10-11 clean; 12-13 cleanToDirty; 14 a
// capture→restore round trip of the Level into a fresh one, which carries
// on in its place; 15 reset.
func FuzzCacheLevel(f *testing.F) {
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		cfg := fuzzGeometries[int(prog[0])%len(fuzzGeometries)]
		lvl := NewLevel(cfg, sim.NewStats())
		ref := newRefLevel(cfg)
		pool := 2 * len(lvl.lines)
		checkSet := func(op, si int) {
			t.Helper()
			got := lvl.captureState().Lines[si*lvl.ways : (si+1)*lvl.ways]
			if want := ref.recencyOrder(t, si); !slices.Equal(got, want) {
				t.Fatalf("op %d: %s set %d\n got  %#x\n want %#x", op, cfg.Name, si, got, want)
			}
		}
		for op, p := 0, prog[1:]; len(p) >= 2; op, p = op+1, p[2:] {
			code, write := p[0]&15, p[0]&16 != 0
			addr := mem.PhysAddr(int(p[1])%pool) * mem.LineSize
			si := ref.setIndex(addr)
			if got, want := lvl.setIndex(addr), si; got != want {
				t.Fatalf("op %d: set index of %#x = %d, reference %d", op, addr, got, want)
			}
			type result struct {
				a, b, c bool
				v       mem.PhysAddr
			}
			var got, want result
			switch {
			case code < 8:
				w, fill := lineWord(addr), lineWord(addr)
				if write {
					fill |= dirtyBit
				}
				var v uint32
				got.a, v = access(lvl.set(addr), w, fill, write)
				if v != emptyWay {
					got.v, got.b, got.c = lineAddr(v), v&dirtyBit != 0, true
				}
				if want.a = ref.access(addr, write); !want.a {
					want.v, want.b, want.c = ref.fill(addr, write)
				}
			case code < 10:
				got.a, got.b = lvl.invalidate(addr)
				want.a, want.b = ref.invalidate(addr)
			case code < 12:
				got.a, got.b = lvl.clean(addr)
				want.a, want.b = ref.clean(addr)
			case code < 14:
				got.a, got.b = lvl.cleanToDirty(addr)
				want.a, want.b = ref.cleanToDirty(addr)
			case code == 14:
				fresh := NewLevel(cfg, sim.NewStats())
				if err := fresh.restoreState(lvl.captureState()); err != nil {
					t.Fatalf("op %d: restoring a capture: %v", op, err)
				}
				lvl = fresh
			default:
				lvl.reset()
				ref.reset()
			}
			if got != want {
				t.Fatalf("op %d: opcode %d on %#x (write=%v): got %+v, reference %+v", op, code, addr, write, got, want)
			}
			if g, w := lvl.Probe(addr), ref.Probe(addr); g != w {
				t.Fatalf("op %d: Probe(%#x) = %v, reference %v", op, addr, g, w)
			}
			if code < 14 {
				checkSet(op, si)
				continue
			}
			for s := 0; s < lvl.sets; s++ {
				checkSet(op, s)
			}
		}
	})
}
