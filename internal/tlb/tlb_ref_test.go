package tlb

import (
	"bytes"
	"slices"
	"testing"

	"kindle/internal/sim"
)

// refTLB is the stamp-LRU two-level TLB that the pooled TLB replaced,
// kept verbatim less its MRU-way probe (a host-side shortcut over the set
// scan) and its structural generation (read only by the core's deleted
// translation cache). FuzzTLB checks TLB against it.
//
// Each level stores whole entries in a flat array, set si owning
// store[si*ways : si*ways+lens[si]], with an LRU stamp per entry from a
// per-level clock. Entries move between the levels by value: a promotion
// takes the entry out of L2 and inserts a copy into L1, and the L1 victim
// is inserted into L2 in turn.
type refTLB struct {
	l1, l2  *refLevel
	onEvict EvictFn

	l1Hit, l1Miss *sim.Counter
	l2Hit, l2Miss *sim.Counter
	invalidates   *sim.Counter
	flushes       *sim.Counter
}

// refEntry is an Entry with the stamp the reference keeps beside it.
type refEntry struct {
	Entry
	lru uint64
}

type refLevel struct {
	sets    int
	setMask uint64 // sets-1 when sets is a power of two, else 0 (use modulo)
	ways    int
	latency sim.Cycles
	store   []refEntry
	lens    []int32
	clock   uint64

	evicts *sim.Counter // "tlb.<name>.evict", resolved once
}

func newRefLevel(cfg Config, stats *sim.Stats) *refLevel {
	if cfg.Ways <= 0 || cfg.Entries%cfg.Ways != 0 {
		panic("refLevel: bad geometry")
	}
	sets := cfg.Entries / cfg.Ways
	l := &refLevel{
		sets:    sets,
		ways:    cfg.Ways,
		latency: cfg.Latency,
		store:   make([]refEntry, sets*cfg.Ways),
		lens:    make([]int32, sets),
		evicts:  stats.Counter("tlb." + cfg.Name + ".evict"),
	}
	if sets&(sets-1) == 0 {
		l.setMask = uint64(sets - 1)
	}
	return l
}

func (l *refLevel) setIndex(vpn uint64) int {
	if l.setMask != 0 || l.sets == 1 {
		return int(vpn & l.setMask)
	}
	return int(vpn % uint64(l.sets))
}

func (l *refLevel) lookup(vpn uint64) *refEntry {
	si := l.setIndex(vpn)
	set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
	for i := range set {
		if set[i].VPN == vpn {
			l.clock++
			set[i].lru = l.clock
			return &set[i]
		}
	}
	return nil
}

// insert installs e and returns a pointer to its live slot. When the set
// was full the evicted entry is returned by value (evicted=true). The
// same-VPN and LRU scans are fused into one pass.
func (l *refLevel) insert(e refEntry) (slot *refEntry, victim refEntry, evicted bool) {
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
			return &set[i], refEntry{}, false
		}
		if set[i].lru < set[lruIdx].lru {
			lruIdx = i
		}
	}
	if n < l.ways {
		l.store[b+n] = e
		l.lens[si] = int32(n + 1)
		return &l.store[b+n], refEntry{}, false
	}
	victim = set[lruIdx]
	set[lruIdx] = e
	l.evicts.Inc()
	return &set[lruIdx], victim, true
}

// take removes and returns the entry for vpn, touching it exactly as
// lookup would first (clock advance + LRU stamp on the returned copy).
func (l *refLevel) take(vpn uint64) (refEntry, bool) {
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
	return refEntry{}, false
}

func (l *refLevel) invalidate(vpn uint64) (refEntry, bool) {
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
	return refEntry{}, false
}

func (l *refLevel) reset() {
	for i := range l.lens {
		l.lens[i] = 0
	}
}

// forEach visits every entry (mutable).
func (l *refLevel) forEach(fn func(e *Entry)) {
	for si := range l.lens {
		set := l.store[si*l.ways : si*l.ways+int(l.lens[si])]
		for i := range set {
			fn(&set[i].Entry)
		}
	}
}

func newRefTLB(l1, l2 Config, stats *sim.Stats) *refTLB {
	return &refTLB{
		l1: newRefLevel(l1, stats), l2: newRefLevel(l2, stats),
		l1Hit: stats.Counter("tlb.l1.hit"), l1Miss: stats.Counter("tlb.l1.miss"),
		l2Hit: stats.Counter("tlb.l2.hit"), l2Miss: stats.Counter("tlb.l2.miss"),
		invalidates: stats.Counter("tlb.invalidate"),
		flushes:     stats.Counter("tlb.flush_all"),
	}
}

func (t *refTLB) SetEvictHook(fn EvictFn) { t.onEvict = fn }

func (t *refTLB) Lookup(vpn uint64) (*Entry, sim.Cycles) {
	if e := t.l1.lookup(vpn); e != nil {
		t.l1Hit.Inc()
		return &e.Entry, t.l1.latency
	}
	t.l1Miss.Inc()
	if promoted, ok := t.l2.take(vpn); ok {
		t.l2Hit.Inc()
		// Promote to L1; the L1 victim falls back into L2.
		e1, v, evicted := t.l1.insert(promoted)
		if evicted {
			t.demote(v)
		}
		// Re-touch exactly as a trailing L1 lookup would.
		t.l1.clock++
		e1.lru = t.l1.clock
		return &e1.Entry, t.l1.latency + t.l2.latency
	}
	t.l2Miss.Inc()
	return nil, t.l1.latency + t.l2.latency
}

// demote drops an L1 victim into L2, firing the whole-TLB evict hook when
// that in turn pushes an entry out of L2.
func (t *refTLB) demote(v refEntry) {
	_, v2, evicted := t.l2.insert(v)
	if evicted && t.onEvict != nil {
		hooked := v2
		t.onEvict(&hooked.Entry)
	}
}

func (t *refTLB) Insert(e Entry) *Entry {
	slot, v, evicted := t.l1.insert(refEntry{Entry: e})
	if evicted {
		t.demote(v)
	}
	return &slot.Entry
}

func (t *refTLB) Invalidate(vpn uint64) bool {
	found := false
	if v, ok := t.l1.invalidate(vpn); ok {
		found = true
		if t.onEvict != nil {
			hooked := v
			t.onEvict(&hooked.Entry)
		}
	}
	if v, ok := t.l2.invalidate(vpn); ok {
		found = true
		if t.onEvict != nil {
			hooked := v
			t.onEvict(&hooked.Entry)
		}
	}
	if found {
		t.invalidates.Inc()
	}
	return found
}

func (t *refTLB) InvalidateAll() {
	if t.onEvict != nil {
		t.l1.forEach(func(e *Entry) { t.onEvict(e) })
		t.l2.forEach(func(e *Entry) { t.onEvict(e) })
	}
	t.l1.reset()
	t.l2.reset()
	t.flushes.Inc()
}

func (t *refTLB) ForEach(fn func(e *Entry)) {
	t.l1.forEach(fn)
	t.l2.forEach(fn)
}

func (t *refTLB) Reset() {
	t.l1.reset()
	t.l2.reset()
}

// fuzzGeometry is one TLB shape FuzzTLB runs. VPNs are drawn from
// [base, base+space), twice the TLB's capacity, so L1 hits, promotions
// and L2 evictions all stay frequent.
type fuzzGeometry struct {
	name   string
	l1, l2 Config
	base   uint64
	space  uint64
}

// fuzzGeometries: the default geometry; a one-set 8-way L1 over a one-set
// 16-way L2; a 3-set L1 over a 5-set L2, whose demotions land in other
// sets than their promotions came from; and a 5-set L1 over a 3-set L2
// whose VPNs end at the widest a tag word holds.
var fuzzGeometries = []fuzzGeometry{
	{"default", DefaultConfigL1(), DefaultConfigL2(), 0, 3200},
	{"1set",
		Config{Name: "l1", Entries: 8, Ways: 8, Latency: 1},
		Config{Name: "l2", Entries: 16, Ways: 16, Latency: 7}, 1 << 40, 48},
	{"3over5",
		Config{Name: "l1", Entries: 12, Ways: 4, Latency: 1},
		Config{Name: "l2", Entries: 30, Ways: 6, Latency: 9}, 0, 84},
	{"5over3",
		Config{Name: "l1", Entries: 10, Ways: 2, Latency: 2},
		Config{Name: "l2", Entries: 24, Ways: 8, Latency: 5}, maxVPN - 67, 68},
}

// checkSet fails unless set si of level l, as captureSet writes it into
// st for a snapshot, holds what set si of the reference level holds: the
// same entries in the same slot order, then zeroed slots, and a recency
// run naming those slots in strictly descending stamp order, then -1. A
// change to the captured layout fails here too.
func checkSet(t *testing.T, op int, tb *TLB, l *level, st LevelState, ref *refLevel, si int) {
	t.Helper()
	l.captureSet(st, tb.pool, si)
	b, n := si*l.ways, int(st.Lens[si])
	if want := int(ref.lens[si]); n != want {
		t.Fatalf("op %d: %s set %d holds %d entries, reference %d", op, l.name, si, n, want)
	}
	refSet := ref.store[b : b+n]
	for j, got := range st.Entries[b : b+l.ways] {
		var want EntryState
		if j < n {
			want = EntryState(refSet[j].Entry)
		}
		if got != want {
			t.Fatalf("op %d: %s set %d slot %d holds %+v, reference %+v", op, l.name, si, j, got, want)
		}
	}
	prev := ^uint64(0)
	for k, s := range st.Recency[b : b+l.ways] {
		if k >= n {
			if s != -1 {
				t.Fatalf("op %d: %s set %d recency position %d of %d holds %d, want -1", op, l.name, si, k, n, s)
			}
			continue
		}
		if s < 0 || int(s) >= n || refSet[s].lru >= prev {
			t.Fatalf("op %d: %s set %d recency position %d holds slot %d, out of the reference's stamp order",
				op, l.name, si, k, s)
		}
		prev = refSet[s].lru
	}
}

// FuzzTLB drives a TLB and the stamp-LRU refTLB through one byte program
// with the operations production performs, and requires identical hit and
// miss results, latencies, returned entries, evict-hook sequences,
// ForEach visit orders, set contents and, at the end, stats dumps. It
// also requires an entry's pointer to stay the same for as long as its
// translation is resident.
//
// The first byte picks the geometry. Each following pair, up to maxOps
// of them, is an opcode byte and a VPN byte; the opcode's high nibble
// supplies the VPN's bits 8-11. Opcodes (low nibble): 0-8 lookup, then
// Insert on a miss, as the core's translate does, and mark the entry as
// SSP and HSCC would; 9 lookup alone; 10 Invalidate; 11 InvalidateAll; 12
// install or remove the evict hook; 13 a ForEach that mutates the SSP and
// HSCC fields, as their interval ends do; 14 a capture→restore round trip
// of the TLB into a fresh one, which carries on in its place; 15 Reset.
func FuzzTLB(f *testing.F) {
	// maxOps bounds a program, so the engine's input minimization stays
	// quick even on the default geometry.
	const maxOps = 1024
	f.Fuzz(func(t *testing.T, prog []byte) {
		if len(prog) == 0 {
			return
		}
		if len(prog) > 1+2*maxOps {
			prog = prog[:1+2*maxOps]
		}
		g := fuzzGeometries[int(prog[0])%len(fuzzGeometries)]
		t.Logf("geometry %s", g.name)
		stats, refStats := sim.NewStats(), sim.NewStats()
		tb := New(g.l1, g.l2, stats)
		ref := newRefTLB(g.l1, g.l2, refStats)
		// One capture of each level, rewritten a set at a time by checkSet.
		st1, st2 := tb.l1.captureState(tb.pool), tb.l2.captureState(tb.pool)

		var evicted, refEvicted []Entry
		hookOn := false
		hook := func(e *Entry) { evicted = append(evicted, *e) }
		refHook := func(e *Entry) { refEvicted = append(refEvicted, *e) }
		// live maps each VPN to the entry pointer TLB last returned for
		// it, while the hook can tell when the translation leaves.
		live := map[uint64]*Entry{}
		checkHooks := func(op int) {
			t.Helper()
			if !slices.Equal(evicted, refEvicted) {
				vpns := func(es []Entry) (v []uint64) {
					for _, e := range es {
						v = append(v, e.VPN)
					}
					return v
				}
				t.Fatalf("op %d: evict hook saw VPNs %#x, reference %#x\n got  %+v\n want %+v",
					op, vpns(evicted), vpns(refEvicted), evicted, refEvicted)
			}
			for _, e := range evicted {
				delete(live, e.VPN)
			}
			evicted, refEvicted = evicted[:0], refEvicted[:0]
		}

		for op, p := 0, prog[1:]; len(p) >= 2; op, p = op+1, p[2:] {
			code := p[0] & 15
			vpn := g.base + (uint64(p[0]>>4)<<8|uint64(p[1]))%g.space
			switch {
			case code <= 9:
				got, lat := tb.Lookup(vpn)
				want, refLat := ref.Lookup(vpn)
				if (got == nil) != (want == nil) || lat != refLat {
					t.Fatalf("op %d: Lookup(%#x) = %v, %d; reference %v, %d", op, vpn, got != nil, lat, want != nil, refLat)
				}
				if got == nil && code < 9 {
					e := Entry{VPN: vpn, PFN: vpn*7 + 1, SSPAlt: vpn + 99,
						Writable: vpn%2 == 0, NVM: vpn%3 == 0, SSPValid: vpn%5 == 0}
					got, want = tb.Insert(e), ref.Insert(e)
					checkHooks(op)
					if hookOn {
						live[vpn] = got
					}
				}
				if got == nil {
					break
				}
				if *got != *want {
					t.Fatalf("op %d: Lookup(%#x) entry %+v, reference %+v", op, vpn, *got, *want)
				}
				if e, ok := live[vpn]; ok && e != got {
					t.Fatalf("op %d: VPN %#x moved from %p to %p while resident", op, vpn, e, got)
				}
				got.SSPUpdated |= 1 << (p[1] & 63)
				want.SSPUpdated |= 1 << (p[1] & 63)
				got.AccessCount++
				want.AccessCount++
			case code == 10:
				if got, want := tb.Invalidate(vpn), ref.Invalidate(vpn); got != want {
					t.Fatalf("op %d: Invalidate(%#x) = %v, reference %v", op, vpn, got, want)
				}
				delete(live, vpn)
			case code == 11:
				tb.InvalidateAll()
				ref.InvalidateAll()
				clear(live)
			case code == 12:
				hookOn = !hookOn
				if hookOn {
					tb.SetEvictHook(hook)
					ref.SetEvictHook(refHook)
				} else {
					tb.SetEvictHook(nil)
					ref.SetEvictHook(nil)
					clear(live)
				}
			case code == 13:
				var seen, refSeen []uint64
				mutate := func(seen *[]uint64) func(e *Entry) {
					return func(e *Entry) {
						*seen = append(*seen, e.VPN)
						e.SSPCurrent ^= e.SSPUpdated
						e.SSPUpdated = 0
						e.AccessCount /= 2
						e.CountSpilled = !e.CountSpilled
					}
				}
				tb.ForEach(mutate(&seen))
				ref.ForEach(mutate(&refSeen))
				if !slices.Equal(seen, refSeen) {
					t.Fatalf("op %d: ForEach visited %#x, reference %#x", op, seen, refSeen)
				}
			case code == 14:
				fresh := New(g.l1, g.l2, stats)
				if err := fresh.RestoreState(tb.CaptureState()); err != nil {
					t.Fatalf("op %d: restoring a capture: %v", op, err)
				}
				if hookOn {
					fresh.SetEvictHook(hook)
				}
				tb = fresh
				clear(live)
			default:
				tb.Reset()
				ref.Reset()
				clear(live)
			}
			checkHooks(op)
			if code <= 10 || code == 12 || code == 13 {
				checkSet(t, op, tb, &tb.l1, st1, ref.l1, tb.l1.setIndex(vpn))
				checkSet(t, op, tb, &tb.l2, st2, ref.l2, tb.l2.setIndex(vpn))
				continue
			}
			for si := 0; si < tb.l1.sets; si++ {
				checkSet(t, op, tb, &tb.l1, st1, ref.l1, si)
			}
			for si := 0; si < tb.l2.sets; si++ {
				checkSet(t, op, tb, &tb.l2, st2, ref.l2, si)
			}
		}
		var dump, refDump bytes.Buffer
		if err := stats.WriteStatsFile(&dump); err != nil {
			t.Fatal(err)
		}
		if err := refStats.WriteStatsFile(&refDump); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dump.Bytes(), refDump.Bytes()) {
			t.Fatalf("stats dumps differ:\n%s\n----\n%s", dump.String(), refDump.String())
		}
	})
}
