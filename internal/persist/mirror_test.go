package persist

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
)

// mapV2PMirror is the reference v2p mirror: the vpn → list position map
// v2pMirror used before its leaf-indexed index, kept only as the oracle
// TestV2PMirrorMatchesMap checks the leaves against.
type mapV2PMirror struct {
	entries []v2pEntry
	index   map[uint64]int
}

func (v *mapV2PMirror) set(vpn, pfn uint64) int {
	if i, ok := v.index[vpn]; ok {
		v.entries[i].pfn = pfn
		return i
	}
	i := len(v.entries)
	v.index[vpn] = i
	v.entries = append(v.entries, v2pEntry{vpn: vpn, pfn: pfn})
	return i
}

func (v *mapV2PMirror) remove(vpn uint64) int {
	i, ok := v.index[vpn]
	if !ok {
		return -1
	}
	last := len(v.entries) - 1
	v.entries[i] = v.entries[last]
	v.index[v.entries[i].vpn] = i
	v.entries = v.entries[:last]
	delete(v.index, vpn)
	if i == last {
		return -1
	}
	return i
}

// TestV2PMirrorMatchesMap drives the leaf-indexed mirror and the
// map-indexed reference with 100k random sets and removes over a few
// dense 2 MiB regions (one straddling a leaf boundary) and far-apart
// single pages. Every returned index and the entry list order must match:
// the list order decides which NVM slot each checkpoint writes.
func TestV2PMirrorMatchesMap(t *testing.T) {
	rng := sim.NewRNG(7)
	regions := []uint64{0x400, 0x7ff00, 0x12345 << 9}
	vpn := func() uint64 {
		if rng.Intn(8) == 0 {
			return uint64(rng.Intn(64)) << 30 // a page in its own leaf
		}
		return regions[rng.Intn(len(regions))] + uint64(rng.Intn(600))
	}
	v := newV2PMirror()
	ref := &mapV2PMirror{index: make(map[uint64]int)}
	for i := 0; i < 100_000; i++ {
		n := vpn()
		var got, want int
		op := "set"
		if rng.Intn(5) < 2 {
			op = "remove"
			got, want = v.remove(n), ref.remove(n)
		} else {
			pfn := uint64(i)
			got, want = v.set(n, pfn), ref.set(n, pfn)
		}
		if got != want {
			t.Fatalf("call %d: %s(%#x) returned %d, reference %d", i, op, n, got, want)
		}
		if i%1000 == 0 && !slices.Equal(v.entries, ref.entries) {
			t.Fatalf("call %d: entry lists differ", i)
		}
	}
	if !slices.Equal(v.entries, ref.entries) {
		t.Fatal("final entry lists differ")
	}
	for _, e := range ref.entries {
		if got := v.find(e.vpn); got != ref.index[e.vpn] {
			t.Fatalf("find(%#x) = %d, reference %d", e.vpn, got, ref.index[e.vpn])
		}
	}
	if got := v.find(1 << 40); got != -1 {
		t.Fatalf("find of an absent vpn = %d", got)
	}
}

// TestSettleMatchesMap: the change log settles to the vpn-sorted,
// last-write-wins set a map keyed by vpn would hold.
func TestSettleMatchesMap(t *testing.T) {
	rng := sim.NewRNG(3)
	var log []mapChange
	last := make(map[uint64]mapChange)
	for i := 0; i < 5000; i++ {
		ch := mapChange{vpn: uint64(rng.Intn(700)), pfn: uint64(i), mapped: rng.Intn(3) > 0}
		log = append(log, ch)
		last[ch.vpn] = ch
	}
	got := settle(log)
	if len(got) != len(last) {
		t.Fatalf("settled to %d changes, want %d", len(got), len(last))
	}
	for i, ch := range got {
		if i > 0 && got[i-1].vpn >= ch.vpn {
			t.Fatalf("change %d (vpn %#x) out of vpn order", i, ch.vpn)
		}
		if ch != last[ch.vpn] {
			t.Fatalf("vpn %#x settled to %+v, want the last change %+v", ch.vpn, ch, last[ch.vpn])
		}
	}
}

// TestChangeLogStaysBounded: remapping a few pages many times between
// checkpoints keeps the change log near its set of vpns, and the
// checkpoint still applies the last change of each.
func TestChangeLogStaysBounded(t *testing.T) {
	_, _, mgr, p := boot(t, Rebuild)
	const vpns = 100
	for i := 0; i < 100*vpns; i++ {
		mgr.LogMapping(p, 0x1000+uint64(i%vpns), uint64(i), i%7 != 0)
	}
	if n := cap(mgr.dirty[p.PID].changes); n > 4*vpns {
		t.Fatalf("change log holds room for %d changes after remapping %d pages", n, vpns)
	}
	mgr.Checkpoint()
	v := mgr.slots[p.Slot].mirror
	for k := 0; k < vpns; k++ {
		last := 99*vpns + k // the last change of vpn 0x1000+k
		got := v.find(0x1000 + uint64(k))
		if mapped := last%7 != 0; mapped != (got >= 0) || mapped && v.entries[got].pfn != uint64(last) {
			t.Fatalf("vpn %#x: mirror position %d after the checkpoint, want the last change (pfn %d, mapped %v)", 0x1000+k, got, last, mapped)
		}
	}
}

// TestRestoreManagerRejectsDuplicateVPN: a slot's V2P list comes from a
// snapshot file; one naming a VPN twice would leave two entries for one
// mapping, and a later remove would keep a stale one for recovery to
// replay. RestoreManager must refuse it, naming the slot, the VPN and both
// entries, and leave the kernel unwired.
func TestRestoreManagerRejectsDuplicateVPN(t *testing.T) {
	m, k, mgr, p := boot(t, Rebuild)
	a, err := k.Mmap(p, 0, 4*4096, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 4; i++ {
		m.Core.Access(a+i*4096, true, 1)
	}
	mgr.Checkpoint()
	st := mgr.CaptureState()
	v2p := st.Slots[p.Slot].V2P
	v2p[3].VPN = v2p[1].VPN
	k2, err := gemos.RestoreKernel(machine.New(machine.TestConfig()), k.CaptureState())
	if err != nil {
		t.Fatal(err)
	}
	_, err = RestoreManager(k2, st)
	want := fmt.Sprintf("slot %d: V2P lists VPN %#x twice, at entries 1 and 3", p.Slot, v2p[1].VPN)
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("RestoreManager error %v, want one naming %q", err, want)
	}
	if k2.Meta != nil || k2.OnSpawn != nil {
		t.Fatal("refused restore wired the kernel")
	}
}

// BenchmarkChurnTouch runs persist-churn's loop on a rebuild-scheme Table I
// machine with 1 ms checkpoints: a 32 MiB NVM area is mapped and written
// once, then each iteration unmaps and remaps an 8 MiB chunk and writes
// every page of the area again, ticking the kernel every 16 pages. The
// profile of this benchmark (make profile) shows where the churn path
// spends host time: the fault path, munmap, checkpoints and the NVM
// write buffer.
func BenchmarkChurnTouch(b *testing.B) {
	const (
		area  = 32 << 20
		chunk = area / 4
	)
	m, k, mgr, p := bootConfig(b, machine.DefaultConfig(), Rebuild)
	mgr.Interval = sim.FromDuration(time.Millisecond)
	mgr.Start()
	a, err := k.Mmap(p, 0, area, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
	if err != nil {
		b.Fatal(err)
	}
	touch := func() {
		for i := uint64(0); i < area/mem.PageSize; i++ {
			if _, err := m.Core.Access(a+i*mem.PageSize, true, 8); err != nil {
				b.Fatal(err)
			}
			if i%16 == 0 {
				k.Tick()
			}
		}
		k.Tick()
	}
	touch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.Munmap(p, a, chunk); err != nil {
			b.Fatal(err)
		}
		k.Tick()
		if _, err := k.Mmap(p, a, chunk, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM); err != nil {
			b.Fatal(err)
		}
		k.Tick()
		touch()
	}
	b.ReportMetric(float64(b.N*area/mem.PageSize)/b.Elapsed().Seconds(), "pages/s")
}
