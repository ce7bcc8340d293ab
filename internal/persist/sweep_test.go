package persist

import (
	"strings"
	"testing"
	"time"

	"kindle/internal/fault"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
)

// sweepTestCfg keeps the commit-point sweep's event count small enough to
// enumerate exhaustively under `go test` while still spanning several
// checkpoints; the bench crash-sweep experiment runs the bigger version.
func sweepTestCfg(scheme Scheme) SweepConfig {
	return SweepConfig{Scheme: scheme, Ops: 10, Seed: 3}
}

// TestCommitPointSweep replays the sweep workload with an injected power
// failure at every durability event (strided only if the stream is large),
// for both page-table schemes, in both crash-before and torn-line modes.
// Every commit point must recover to an invariant-satisfying state.
func TestCommitPointSweep(t *testing.T) {
	for _, scheme := range []Scheme{Rebuild, Persistent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := sweepTestCfg(scheme)
			plan, err := PlanSweep(cfg)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			const maxPoints = 160
			stride := uint64(1)
			if plan.Events > maxPoints {
				stride = (plan.Events + maxPoints - 1) / maxPoints
			}
			t.Logf("%v: %d events, %d checkpoints, stride %d",
				scheme, plan.Events, plan.Checkpoints, stride)
			for k := uint64(1); k <= plan.Events; k += stride {
				if err := RunCrashPoint(cfg, plan, fault.NewCrashBefore(k)); err != nil {
					t.Errorf("crash-before %d: %v", k, err)
				}
			}
			// Always include the last event: crash at the final commit.
			if err := RunCrashPoint(cfg, plan, fault.NewCrashBefore(plan.Events)); err != nil {
				t.Errorf("crash-before last (%d): %v", plan.Events, err)
			}
			// Torn-line mode at a spread of points with varying prefix
			// lengths (PCM's 8-byte atomic write unit).
			for k := uint64(1); k <= plan.Events; k += stride * 4 {
				words := int(k%7) + 1
				if err := RunCrashPoint(cfg, plan, fault.NewTorn(k, words)); err != nil {
					t.Errorf("torn %d (%d words): %v", k, words, err)
				}
			}
		})
	}
}

// TestCheckpointFlipOrdering pins the durability order of the checkpoint's
// commit sequence: the header line holding the target copy's cursor and
// VMA/v2p counts (+0x300) must become durable before the line holding the
// consistent-copy flip (+0x0). Before the ordering fix the counts line was
// only committed by the trailing header CommitRange — after the flip — so
// this test fails on that code.
func TestCheckpointFlipOrdering(t *testing.T) {
	for _, scheme := range []Scheme{Rebuild, Persistent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			m := machine.New(machine.TestConfig())
			k := gemos.Boot(m)
			mgr, err := Attach(k, scheme, sim.FromDuration(100*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			p, err := k.Spawn("flip")
			if err != nil {
				t.Fatal(err)
			}
			k.Switch(p)
			// Churn the layout so the checkpoint writes fresh VMA and count
			// values (do not Start the timer; Checkpoint is invoked
			// directly under the recorder).
			o := &sweepOps{k: k, p: p, rng: sim.NewRNG(7)}
			for i := 0; i < 12; i++ {
				if err := o.step(); err != nil {
					t.Fatal(err)
				}
			}

			rec := fault.NewRecorder()
			m.SetCommitHook(rec)
			mgr.Checkpoint()
			m.SetCommitHook(nil)

			sa := mgr.geo.slotAddr(p.Slot)
			counts, flip := -1, -1
			for i, line := range rec.Trace() {
				if line == sa+hdrCursorA && counts < 0 {
					counts = i
				}
				if line == sa && flip < 0 {
					flip = i
				}
			}
			if counts < 0 || flip < 0 {
				t.Fatalf("trace missing header commits: counts=%d flip=%d (trace len %d)",
					counts, flip, len(rec.Trace()))
			}
			if counts > flip {
				t.Fatalf("consistent-copy flip (event %d) became durable before the counts line (event %d)",
					flip, counts)
			}
		})
	}
}

// TestFlipWindowCrashPoints replays the workload with a crash targeted at
// every commit of the slot-header flip line: suppressing the flip itself
// (old copy must recover), crashing right after it (the pre-fix window:
// flip durable, everything later volatile), and tearing it. This is the
// regression pin for the flip-ordering bug — with the trailing-commit
// ordering, "right after the flip" recovered a copy whose counts were
// stale.
func TestFlipWindowCrashPoints(t *testing.T) {
	for _, scheme := range []Scheme{Rebuild, Persistent} {
		scheme := scheme
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := sweepTestCfg(scheme).withDefaults()
			plan, err := PlanSweep(cfg)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}

			// Locate the slot-0 header line in NVM.
			gm := machine.New(machine.TestConfig())
			gk := gemos.Boot(gm)
			base, size := gk.PersistArea()
			geo, err := newGeometry(base, size)
			if err != nil {
				t.Fatal(err)
			}
			sa := geo.slotAddr(0)

			// Record the full event trace (deterministic: identical to the
			// plan run and to every replay).
			rec := fault.NewRecorder()
			rm := machine.New(machine.TestConfig())
			rm.SetCommitHook(rec)
			if err := runSweepWorkload(rm, cfg, rec, nil); err != nil {
				t.Fatalf("recorder run: %v", err)
			}
			if rec.Events() != plan.Events {
				t.Fatalf("nondeterministic event stream: %d vs planned %d", rec.Events(), plan.Events)
			}

			var flips []uint64 // 1-based event indices committing the flip line
			for i, line := range rec.Trace() {
				if line == sa {
					flips = append(flips, uint64(i)+1)
				}
			}
			if len(flips) < 2 {
				t.Fatalf("workload committed the flip line only %d times", len(flips))
			}
			for _, ev := range flips {
				// The flip itself does not land.
				if err := RunCrashPoint(cfg, plan, fault.NewCrashBefore(ev)); err != nil {
					t.Errorf("suppressed flip at event %d: %v", ev, err)
				}
				// The flip lands, the very next event does not: the old
				// trailing-commit window.
				if ev < plan.Events {
					if err := RunCrashPoint(cfg, plan, fault.NewCrashBefore(ev+1)); err != nil {
						t.Errorf("window after flip at event %d: %v", ev, err)
					}
				}
				// The flip line tears mid-write.
				for _, words := range []int{1, 3, 6} {
					if err := RunCrashPoint(cfg, plan, fault.NewTorn(ev, words)); err != nil {
						t.Errorf("torn flip at event %d (%d words): %v", ev, words, err)
					}
				}
			}
		})
	}
}

// TestReattachRejectsCorruptScheme: a durable area header whose scheme word
// is garbage must fail Reattach instead of configuring the kernel with an
// undefined page-table scheme.
func TestReattachRejectsCorruptScheme(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := gemos.Boot(m)
	if _, err := Attach(k, Rebuild, sim.FromDuration(100*time.Microsecond)); err != nil {
		t.Fatal(err)
	}
	base, _ := k.PersistArea()
	m.StoreU64(base+8, 99) // corrupt the scheme word, keep the magic
	m.CommitRange(base, mem.LineSize)
	m.Crash()

	k2 := gemos.Boot(m)
	_, err := Reattach(k2, sim.FromDuration(100*time.Microsecond))
	if err == nil {
		t.Fatal("Reattach accepted a corrupt scheme word")
	}
	if !strings.Contains(err.Error(), "scheme") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestRedoLogWrapAccounting pins the ring accounting across a wrap: pending
// never exceeds capacity, overwritten entries are counted as lost, and
// drain reads (and reports) only live entries.
func TestRedoLogWrapAccounting(t *testing.T) {
	m := machine.New(machine.TestConfig())
	k := gemos.Boot(m)
	base, _ := k.PersistArea()
	l := newRedoLog(m, base, 4*logEntrySize) // capacity: 4 entries

	for i := 0; i < 3; i++ {
		l.append(logVMAChange, 1, 0, 0)
	}
	if got := l.pending(); got != 3 {
		t.Fatalf("pending after 3 appends = %d", got)
	}
	if n, _ := l.drain(); n != 3 {
		t.Fatalf("drain returned %d, want 3", n)
	}
	if got := l.pending(); got != 0 {
		t.Fatalf("pending after drain = %d", got)
	}

	// Overfill: 6 appends into a 4-entry ring → one wrap, two lost.
	for i := 0; i < 6; i++ {
		l.append(logMapAdd, 1, uint64(i), 0)
	}
	if got := l.pending(); got != 4 {
		t.Fatalf("pending after overfill = %d, want capacity 4", got)
	}
	if got := m.Stats.Get("persist.redo_wrap"); got != 1 {
		t.Fatalf("redo_wrap = %d, want 1", got)
	}
	if got := m.Stats.Get("persist.redo_lost"); got != 2 {
		t.Fatalf("redo_lost = %d, want 2", got)
	}
	if n, _ := l.drain(); n != 4 {
		t.Fatalf("drain after overfill returned %d, want 4", n)
	}
	if got := l.pending(); got != 0 {
		t.Fatalf("pending after second drain = %d", got)
	}
}

// TestV2PMirrorIndices pins which entry slot each mutation reports as
// written — the address the checkpoint's timed v2p update is charged at.
func TestV2PMirrorIndices(t *testing.T) {
	v := newV2PMirror()
	if got := v.set(10, 100); got != 0 {
		t.Fatalf("first insert index = %d", got)
	}
	if got := v.set(20, 200); got != 1 {
		t.Fatalf("second insert index = %d", got)
	}
	if got := v.set(10, 101); got != 0 {
		t.Fatalf("in-place update index = %d", got)
	}
	if got := v.remove(99); got != -1 {
		t.Fatalf("absent remove index = %d", got)
	}
	if got := v.remove(20); got != -1 {
		t.Fatalf("last-entry remove index = %d (no slot is rewritten)", got)
	}
	if v.len() != 1 {
		t.Fatalf("len = %d", v.len())
	}
	v.set(30, 300)
	v.set(40, 400)
	if got := v.remove(10); got != 0 {
		t.Fatalf("swap-compacting remove index = %d, want 0", got)
	}
	if v.entries[0].vpn != 40 || v.entries[0].pfn != 400 {
		t.Fatalf("swap-compaction wrote %+v into slot 0", v.entries[0])
	}
}

// TestSweepPrefixForkIdentity pins the prefix-fork claim directly: running
// the op loop on a machine forked from the plan's prefix snapshot must end
// in a state byte-identical to a cold machine running boot + ops end to
// end. stepped passes each op gap as one clock step (IdleTick 0);
// event-clock passes it at a 1 µs grain, so the run loop jumps from event
// to event inside the gap and checkpoints fire mid-gap.
func TestSweepPrefixForkIdentity(t *testing.T) {
	for _, tc := range []struct {
		name string
		tick sim.Cycles
	}{
		{"stepped", 0},
		{"event-clock", sim.FromDuration(time.Microsecond)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := sweepTestCfg(Rebuild)
			cfg.IdleTick = tc.tick
			full := cfg.withDefaults()

			cold := machine.New(machine.TestConfig())
			cold.SetCommitHook(fault.NewObserver())
			if err := runSweepWorkload(cold, full, fault.NewObserver(), nil); err != nil {
				t.Fatal(err)
			}
			coldDump := cold.Stats.Dump("")
			coldClock := cold.Clock.Now()

			plan, err := PlanSweep(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if plan.Checkpoints == 0 {
				t.Fatal("sweep workload started no checkpoint")
			}
			if plan.prefix == nil {
				t.Fatal("plan carries no prefix snapshot")
			}
			fm, k, _, err := plan.prefix.resume()
			if err != nil {
				t.Fatal(err)
			}
			fm.SetCommitHook(fault.NewObserver())
			p := k.Current()
			if p == nil {
				t.Fatal("forked kernel has no current process")
			}
			if err := sweepRun(k, p, full); err != nil {
				t.Fatal(err)
			}
			if got := fm.Clock.Now(); got != coldClock {
				t.Fatalf("forked clock %d != cold %d", got, coldClock)
			}
			if got := fm.Stats.Dump(""); got != coldDump {
				t.Fatalf("forked sweep dump differs from cold run")
			}
		})
	}
}
