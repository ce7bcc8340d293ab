package core

import (
	"bytes"
	"reflect"
	"testing"

	"kindle/internal/cache"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// TestReleasedStorageBootsLikeFresh: a machine booted on the cache tag
// stores and TLB storage of a released machine, one whose every cache level
// held dirty lines and whose TLB was full, must be indistinguishable from a
// machine booted on fresh storage: the same cache and TLB captures at boot
// (the first context switch flushes the TLB, so only a capture taken
// before it sees the TLB as booted), and after replaying an image the same
// clock, a byte-identical stats file and the same captures again. The
// released machine must panic on its next access rather than share storage
// with its successor.
func TestReleasedStorageBootsLikeFresh(t *testing.T) {
	// A geometry no other test in this package builds, so the first two
	// machines boot on fresh storage whatever ran before, and the third on
	// the second's.
	cfg := machine.TestConfig()
	cfg.Caches.L1 = cache.Config{Name: "l1d", Size: 8 * mem.KiB, Ways: 4, Latency: 4}
	cfg.Caches.L2 = cache.Config{Name: "l2", Size: 48 * mem.KiB, Ways: 6, Latency: 14}
	cfg.Caches.LLC = cache.Config{Name: "llc", Size: 192 * mem.KiB, Ways: 12, Latency: 40}
	cfg.TLB1 = tlb.Config{Name: "l1", Entries: 32, Ways: 4, Latency: 1}
	cfg.TLB2 = tlb.Config{Name: "l2", Entries: 384, Ways: 6, Latency: 7}
	img := smallImage(t)

	type outcome struct {
		bootHier, hier cache.HierarchyState
		bootTLB, tlb   tlb.State
		clock          sim.Cycles
		stats          []byte
	}
	replay := func(f *Framework) outcome {
		t.Helper()
		bootHier, bootTLB := f.M.Hier.CaptureState(), f.M.TLB.CaptureState()
		_, rep, err := f.LaunchInit(img)
		if err != nil {
			t.Fatal(err)
		}
		if err := rep.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := f.M.Stats.WriteStatsFile(&buf); err != nil {
			t.Fatal(err)
		}
		return outcome{bootHier, f.M.Hier.CaptureState(), bootTLB, f.M.TLB.CaptureState(), f.M.Clock.Now(), buf.Bytes()}
	}
	want := replay(New(cfg))

	old := New(cfg)
	va := dirtyEveryLevel(t, old, cfg)
	old.M.Release()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("an access to a released machine did not panic")
			}
		}()
		old.M.Core.Access(va, false, 8)
	}()

	got := replay(New(cfg))
	if !reflect.DeepEqual(got.bootHier, want.bootHier) {
		t.Error("recycled storage: cache capture at boot differs from fresh storage's")
	}
	if !reflect.DeepEqual(got.bootTLB, want.bootTLB) {
		t.Error("recycled storage: TLB capture at boot differs from fresh storage's")
	}
	if got.clock != want.clock {
		t.Errorf("recycled storage: clock %d, fresh storage %d", got.clock, want.clock)
	}
	if !bytes.Equal(got.stats, want.stats) {
		t.Error("recycled storage: stats file differs from fresh storage's")
	}
	if !reflect.DeepEqual(got.hier, want.hier) {
		t.Error("recycled storage: cache capture differs from fresh storage's")
	}
	if !reflect.DeepEqual(got.tlb, want.tlb) {
		t.Error("recycled storage: TLB capture differs from fresh storage's")
	}
}

// dirtyEveryLevel writes every line of an area more than twenty times the
// LLC's size, one page after another, then checks that every cache level
// holds dirty lines and every TLB set is full. It returns a mapped address.
func dirtyEveryLevel(t *testing.T, f *Framework, cfg machine.Config) uint64 {
	t.Helper()
	k := f.K
	p, err := k.Spawn("dirty")
	if err != nil {
		t.Fatal(err)
	}
	k.Switch(p)
	size := uint64(4 * mem.MiB)
	va, err := k.Mmap(p, 0, size, gemos.ProtRead|gemos.ProtWrite, 0)
	if err != nil {
		t.Fatal(err)
	}
	for off := uint64(0); off < size; off += mem.LineSize {
		if _, err := f.M.Core.Access(va+off, true, 8); err != nil {
			t.Fatal(err)
		}
	}
	hs := f.M.Hier.CaptureState()
	for _, l := range []struct {
		name  string
		lines []uint64
	}{{"l1d", hs.L1.Lines}, {"l2", hs.L2.Lines}, {"llc", hs.LLC.Lines}} {
		dirty := 0
		for _, w := range l.lines {
			if w != ^uint64(0) && w&1 != 0 {
				dirty++
			}
		}
		if dirty == 0 {
			t.Fatalf("%s holds no dirty line", l.name)
		}
	}
	ts := f.M.TLB.CaptureState()
	for _, l := range []struct {
		st   tlb.LevelState
		ways int
	}{{ts.L1, cfg.TLB1.Ways}, {ts.L2, cfg.TLB2.Ways}} {
		for si, n := range l.st.Lens {
			if int(n) != l.ways {
				t.Fatalf("TLB set %d holds %d of %d ways", si, n, l.ways)
			}
		}
	}
	return va
}
