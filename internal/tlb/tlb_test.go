package tlb

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"kindle/internal/sim"
)

func TestLookupMissThenHit(t *testing.T) {
	stats := sim.NewStats()
	tb := NewDefault(stats)
	if e, _ := tb.Lookup(5); e != nil {
		t.Fatal("hit on empty TLB")
	}
	tb.Insert(Entry{VPN: 5, PFN: 42, Writable: true})
	e, lat := tb.Lookup(5)
	if e == nil || e.PFN != 42 || !e.Writable {
		t.Fatalf("entry after insert: %+v", e)
	}
	if lat != DefaultConfigL1().Latency {
		t.Fatalf("L1 hit latency = %d", lat)
	}
	if stats.Get("tlb.l1.hit") != 1 || stats.Get("tlb.l2.miss") != 1 {
		t.Fatal("stats wrong")
	}
}

func TestInsertReplacesSameVPN(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	tb.Insert(Entry{VPN: 7, PFN: 1})
	tb.Insert(Entry{VPN: 7, PFN: 2})
	e, _ := tb.Lookup(7)
	if e.PFN != 2 {
		t.Fatalf("PFN = %d, want 2 (replacement)", e.PFN)
	}
}

func TestL1EvictionFallsToL2(t *testing.T) {
	stats := sim.NewStats()
	tb := NewDefault(stats)
	// Fill one L1 set (4 ways, 16 sets): VPNs congruent mod 16.
	for i := 0; i < 5; i++ {
		tb.Insert(Entry{VPN: uint64(i * 16), PFN: uint64(i)})
	}
	// The first-inserted entry was evicted from L1 but must be findable
	// via L2.
	e, lat := tb.Lookup(0)
	if e == nil || e.PFN != 0 {
		t.Fatal("entry lost after L1 eviction")
	}
	if lat <= DefaultConfigL1().Latency {
		t.Fatalf("L2 hit latency %d too low", lat)
	}
	if stats.Get("tlb.l2.hit") != 1 {
		t.Fatal("L2 hit not counted")
	}
}

func TestEvictHookFiresFromL2Only(t *testing.T) {
	stats := sim.NewStats()
	tb := New(Config{Name: "l1", Entries: 4, Ways: 4, Latency: 1},
		Config{Name: "l2", Entries: 8, Ways: 8, Latency: 7}, stats)
	var evicted []uint64
	tb.SetEvictHook(func(e *Entry) { evicted = append(evicted, e.VPN) })
	// 4 into L1; next 8 push earlier ones into L2; beyond that, L2 evicts.
	for i := uint64(0); i < 13; i++ {
		tb.Insert(Entry{VPN: i, PFN: i})
	}
	if len(evicted) != 1 {
		t.Fatalf("evictions observed: %v (want exactly 1)", evicted)
	}
	if evicted[0] != 0 {
		t.Fatalf("wrong victim: %d, want 0 (LRU)", evicted[0])
	}
}

func TestInvalidateFiresHook(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	var got []uint64
	tb.SetEvictHook(func(e *Entry) { got = append(got, e.VPN) })
	tb.Insert(Entry{VPN: 9, PFN: 1, AccessCount: 3})
	if !tb.Invalidate(9) {
		t.Fatal("Invalidate missed present entry")
	}
	if len(got) != 1 || got[0] != 9 {
		t.Fatalf("hook observed %v", got)
	}
	if tb.Invalidate(9) {
		t.Fatal("Invalidate found absent entry")
	}
	if e, _ := tb.Lookup(9); e != nil {
		t.Fatal("entry survived invalidation")
	}
}

// TestInvalidateNoAllocWithoutHook: with no evict hook installed,
// invalidating a translation must not allocate, whether or not it is
// present (the OS invalidates after every PTE change).
func TestInvalidateNoAllocWithoutHook(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	allocs := testing.AllocsPerRun(1000, func() {
		tb.Insert(Entry{VPN: 9, PFN: 1})
		tb.Invalidate(9) // present
		tb.Invalidate(9) // absent
	})
	if allocs != 0 {
		t.Fatalf("Invalidate allocates %v times per run with no hook installed", allocs)
	}
}

func TestInvalidateAll(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	count := 0
	tb.SetEvictHook(func(e *Entry) { count++ })
	for i := uint64(0); i < 10; i++ {
		tb.Insert(Entry{VPN: i})
	}
	tb.InvalidateAll()
	if count != 10 {
		t.Fatalf("hook fired %d times, want 10", count)
	}
	for i := uint64(0); i < 10; i++ {
		if e, _ := tb.Lookup(i); e != nil {
			t.Fatal("entry survived InvalidateAll")
		}
	}
}

func TestMutableEntryExtensions(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	tb.Insert(Entry{VPN: 3, PFN: 8, NVM: true, SSPValid: true, SSPAlt: 9})
	e, _ := tb.Lookup(3)
	e.SSPUpdated |= 1 << 5
	e.AccessCount++
	e2, _ := tb.Lookup(3)
	if e2.SSPUpdated != 1<<5 || e2.AccessCount != 1 {
		t.Fatal("in-place mutation lost")
	}
	if !e2.NVM || !e2.SSPValid || e2.SSPAlt != 9 {
		t.Fatal("extension fields lost")
	}
}

func TestForEachVisitsBothLevels(t *testing.T) {
	tb := New(Config{Name: "l1", Entries: 2, Ways: 2, Latency: 1},
		Config{Name: "l2", Entries: 8, Ways: 8, Latency: 7}, sim.NewStats())
	for i := uint64(0); i < 6; i++ {
		tb.Insert(Entry{VPN: i})
	}
	seen := map[uint64]bool{}
	tb.ForEach(func(e *Entry) { seen[e.VPN] = true })
	if len(seen) != 6 {
		t.Fatalf("ForEach saw %d entries, want 6", len(seen))
	}
}

func TestResetSilent(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	fired := false
	tb.SetEvictHook(func(e *Entry) { fired = true })
	tb.Insert(Entry{VPN: 1})
	tb.Reset()
	if fired {
		t.Fatal("Reset fired hooks (power loss must be silent)")
	}
	if e, _ := tb.Lookup(1); e != nil {
		t.Fatal("entry survived Reset")
	}
}

func TestPromotionKeepsSingleCopy(t *testing.T) {
	tb := New(Config{Name: "l1", Entries: 2, Ways: 2, Latency: 1},
		Config{Name: "l2", Entries: 8, Ways: 8, Latency: 7}, sim.NewStats())
	tb.Insert(Entry{VPN: 1})
	tb.Insert(Entry{VPN: 2})
	tb.Insert(Entry{VPN: 3}) // pushes 1 to L2
	tb.Lookup(1)             // promotes 1 back to L1
	// Count copies of VPN 1.
	n := 0
	tb.ForEach(func(e *Entry) {
		if e.VPN == 1 {
			n++
		}
	})
	if n != 1 {
		t.Fatalf("VPN 1 present %d times, want 1", n)
	}
}

func TestPageOffsetLineBit(t *testing.T) {
	if PageOffsetLineBit(0) != 0 || PageOffsetLineBit(63) != 0 {
		t.Fatal("first line bit wrong")
	}
	if PageOffsetLineBit(64) != 1 || PageOffsetLineBit(4095) != 63 {
		t.Fatal("line bit math wrong")
	}
	if PageOffsetLineBit(0x1234_5000+130) != 2 {
		t.Fatal("line bit ignores page base")
	}
}

func TestLookupInsertProperty(t *testing.T) {
	tb := NewDefault(sim.NewStats())
	f := func(vpn uint16, pfn uint32) bool {
		tb.Insert(Entry{VPN: uint64(vpn), PFN: uint64(pfn)})
		e, _ := tb.Lookup(uint64(vpn))
		return e != nil && e.PFN == uint64(pfn)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBadGeometryPanics(t *testing.T) {
	l1 := DefaultConfigL1()
	cases := []struct {
		name   string
		l1, l2 Config
		want   string
	}{
		{"entries not a multiple of ways", Config{Name: "bad", Entries: 7, Ways: 2}, DefaultConfigL2(), "tlb: bad geometry for bad"},
		{"no ways", l1, Config{Name: "bad", Entries: 8}, "tlb: bad geometry for bad"},
		{"no entries", Config{Name: "bad", Entries: 0, Ways: 4}, DefaultConfigL2(), "tlb: bad geometry for bad"},
		{"pool wider than a tag word", l1, Config{Name: "l2", Entries: 4032, Ways: 12}, "more than 12-bit pool indices"},
		{"more ways than a recency word orders", l1, Config{Name: "l2", Entries: 34, Ways: 17}, "l2 has 17 ways, more than the 16"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				got, _ := recover().(string)
				if !strings.Contains(got, c.want) {
					t.Fatalf("panic %q, want one naming %q", got, c.want)
				}
			}()
			New(c.l1, c.l2, sim.NewStats())
		})
	}
	// The largest pool a tag word can name still builds.
	New(l1, Config{Name: "l2", Entries: 4031, Ways: 1}, sim.NewStats())
}

// TestPromotionNoAlloc: a lookup that promotes an L2 entry, demotes the
// L1 victim into a full L2 set and evicts that set's last entry allocates
// nothing. Promotions are a third of the lookups of a PageRank replay.
// The evict hook sees the pool entry itself, so installing one adds no
// allocation either.
func TestPromotionNoAlloc(t *testing.T) {
	evicted := 0
	for _, hook := range []EvictFn{nil, func(e *Entry) { evicted++ }} {
		stats := sim.NewStats()
		tb := New(Config{Name: "l1", Entries: 1, Ways: 1, Latency: 1},
			Config{Name: "l2", Entries: 2, Ways: 1, Latency: 7}, stats)
		tb.SetEvictHook(hook)
		runs := 0
		allocs := testing.AllocsPerRun(1000, func() {
			// L1 holds 1; L2 holds 0 in set 0 and 3 in set 1. Looking up
			// 0 promotes it, demotes 1 into set 1 and evicts 3.
			tb.Reset()
			tb.Insert(Entry{VPN: 0})
			tb.Insert(Entry{VPN: 3})
			tb.Insert(Entry{VPN: 1})
			if e, _ := tb.Lookup(0); e == nil || e.VPN != 0 {
				t.Fatal("lookup of an L2-resident VPN missed")
			}
			runs++
		})
		if allocs != 0 {
			t.Fatalf("hook %v: promotion allocates %v times per lookup", hook != nil, allocs)
		}
		if got := stats.Get("tlb.l2.evict"); got != uint64(runs) {
			t.Fatalf("hook %v: %d L2 evictions in %d promotions", hook != nil, got, runs)
		}
	}
	if evicted == 0 {
		t.Fatal("evict hook never fired")
	}
}

func BenchmarkTLBHit(b *testing.B) {
	tb := NewDefault(sim.NewStats())
	tb.Insert(Entry{VPN: 1, PFN: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tb.Lookup(1)
	}
}

func BenchmarkTLBChurn(b *testing.B) {
	tb := NewDefault(sim.NewStats())
	for i := 0; i < b.N; i++ {
		vpn := uint64(i % 4096)
		if e, _ := tb.Lookup(vpn); e == nil {
			tb.Insert(Entry{VPN: vpn, PFN: vpn})
		}
	}
}

// BenchmarkTLBPromote replays a seeded stream over about 1,000 distinct
// pages: Lookup, then Insert on a miss, as the core's translate does. The
// pages fit the STLB but not the 64-entry L1, so most lookups promote an
// STLB entry and demote the L1 victim into a set that is often full.
func BenchmarkTLBPromote(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	pages := make([]uint64, 1000)
	for i := range pages {
		pages[i] = uint64(rng.Int63n(1 << 24))
	}
	stream := make([]uint64, 1<<16)
	for i := range stream {
		stream[i] = pages[rng.Intn(len(pages))]
	}
	tb := NewDefault(sim.NewStats())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vpn := stream[i&(len(stream)-1)]
		if e, _ := tb.Lookup(vpn); e == nil {
			tb.Insert(Entry{VPN: vpn, PFN: vpn})
		}
	}
}
