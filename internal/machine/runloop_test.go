package machine

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kindle/internal/sim"
)

// FuzzRunUntil's input is a run-loop script, read with missing bytes as
// zero so every input is valid:
//
//	nOne nPer nIdle                      (u8 each, mod 17, 5 and 13)
//	nOne  x when                         (u16): one-shot deadlines
//	nPer  x period burn flags            (u16 u16 u8): periodic timers
//	nIdle x d mode g delta               (u16 u8 u16 u16): idle stretches
//
// A periodic timer fires every 1+period%1024 cycles, rescheduling itself
// until it fires at or past cycle 40,000; its handler advances the clock
// burn%1024 cycles and, with flags bit 0 set, also schedules an event that
// is already due. Each idle runs d cycles at the grain chosen by mode%5 —
// 0, 1, d+1+g (past the target), 2^64-1-g (wraps when added to the clock)
// or 1+g%1024 — and is followed by an instant event delta%1024 cycles out
// (sometimes 0: due at once). A final 20,000-cycle run at grain 256 drains
// the timers.
type runloopScript struct {
	oneShots []sim.Cycles
	timers   []runloopTimer
	idles    []runloopIdle
}

type runloopTimer struct {
	period, burn sim.Cycles
	spawnDue     bool
}

type runloopIdle struct {
	d, group, delta sim.Cycles
}

// fuzzBytes reads a script's bytes; reads past the end return zero.
type fuzzBytes struct{ data []byte }

func (r *fuzzBytes) u8() byte {
	if len(r.data) == 0 {
		return 0
	}
	b := r.data[0]
	r.data = r.data[1:]
	return b
}

func (r *fuzzBytes) u16() sim.Cycles { return sim.Cycles(r.u8()) | sim.Cycles(r.u8())<<8 }

func decodeRunloopScript(data []byte) runloopScript {
	r := &fuzzBytes{data}
	var s runloopScript
	nOne, nPer, nIdle := int(r.u8()%17), int(r.u8()%5), int(r.u8()%13)
	for i := 0; i < nOne; i++ {
		s.oneShots = append(s.oneShots, r.u16())
	}
	for i := 0; i < nPer; i++ {
		period, burn := 1+r.u16()%1024, r.u16()%1024
		s.timers = append(s.timers, runloopTimer{period, burn, r.u8()&1 != 0})
	}
	for i := 0; i < nIdle; i++ {
		d, mode, g := r.u16(), r.u8()%5, r.u16()
		var group sim.Cycles
		switch mode {
		case 0:
			group = 0
		case 1:
			group = 1
		case 2:
			group = d + 1 + g
		case 3:
			group = ^sim.Cycles(0) - g
		case 4:
			group = 1 + g%1024
		}
		s.idles = append(s.idles, runloopIdle{d, group, r.u16() % 1024})
	}
	return s
}

// run plays the script on a fresh machine, idling through runUntil, and
// returns the firing log and the final clock.
func (s runloopScript) run(runUntil func(m *Machine, target, group sim.Cycles)) ([]string, sim.Cycles) {
	m := New(TestConfig())
	var log []string
	record := func(name string, fire sim.Cycles) {
		log = append(log, fmt.Sprintf("%s@%d/clock%d", name, fire, m.Clock.Now()))
	}
	for i, when := range s.oneShots {
		name := fmt.Sprintf("one%d", i)
		m.Events.Schedule(when, name, func(fire sim.Cycles) { record(name, fire) })
	}
	for i, tm := range s.timers {
		name := fmt.Sprintf("per%d", i)
		var fn func(sim.Cycles)
		fn = func(fire sim.Cycles) {
			record(name, fire)
			m.Clock.Advance(tm.burn)
			if tm.spawnDue {
				m.Events.Schedule(m.Clock.Now(), name+"-due", func(fire sim.Cycles) { record(name+"-due", fire) })
			}
			if fire < 40_000 {
				m.Events.Schedule(m.Clock.Now()+tm.period, name, fn)
			}
		}
		m.Events.Schedule(tm.period, name, fn)
	}
	for i, idle := range s.idles {
		runUntil(m, m.Clock.Now()+idle.d, idle.group)
		name := fmt.Sprintf("mid%d", i)
		m.Events.Schedule(m.Clock.Now()+idle.delta, name, func(fire sim.Cycles) { record(name, fire) })
	}
	runUntil(m, m.Clock.Now()+20_000, 256)
	return log, m.Clock.Now()
}

// FuzzRunUntil is the run loop's property: for any event population and
// idle pattern, RunUntil fires the same events at the same deadlines with
// the same clock values, and finishes at the same cycle, as the stepped
// reference that visits every boundary. The checked-in corpus under
// testdata/fuzz/FuzzRunUntil runs on every go test.
func FuzzRunUntil(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		s := decodeRunloopScript(data)
		want, wantClock := s.run(steppedRunUntil)
		got, gotClock := s.run((*Machine).RunUntil)
		for i := 0; i < len(want) && i < len(got); i++ {
			if want[i] != got[i] {
				t.Fatalf("firing %d differs: stepped %q, RunUntil %q", i, want[i], got[i])
			}
		}
		if len(want) != len(got) {
			t.Fatalf("fired %d events, stepped reference fired %d", len(got), len(want))
		}
		if wantClock != gotClock {
			t.Fatalf("final clock %d, stepped reference %d", gotClock, wantClock)
		}
	})
}

// TestRunUntilDegenerateArgs pins the edge cases: a target at or before now
// is a no-op, and group 0 means one step straight to the target.
func TestRunUntilDegenerateArgs(t *testing.T) {
	m := New(TestConfig())
	m.Clock.AdvanceTo(1000)
	m.RunUntil(1000, 16) // target == now
	m.RunUntil(500, 16)  // target < now
	if m.Clock.Now() != 1000 {
		t.Fatalf("clock moved to %d on no-op RunUntil", m.Clock.Now())
	}
	fired := 0
	m.Events.Schedule(1500, "x", func(sim.Cycles) { fired++ })
	m.RunUntil(2000, 0) // single step to target
	if m.Clock.Now() != 2000 || fired != 1 {
		t.Fatalf("clock %d fired %d, want 2000/1", m.Clock.Now(), fired)
	}
}

// TestRunUntilHugeGroup pins a grain so large that now+group wraps (a
// negative duration converted to cycles lands here): it must mean one step
// to target, firing the pending event once, not a spin at a boundary that
// never moves.
func TestRunUntilHugeGroup(t *testing.T) {
	m := New(TestConfig())
	fired := 0
	m.Events.Schedule(5000, "x", func(sim.Cycles) { fired++ })
	done := make(chan struct{})
	go func() {
		m.RunUntil(10_000, ^sim.Cycles(0)-2999)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunUntil(10000, 2^64-3000) did not return within 10s")
	}
	if m.Clock.Now() != 10_000 || fired != 1 {
		t.Fatalf("clock %d fired %d, want 10000/1", m.Clock.Now(), fired)
	}
}

// TestRunUntilConcurrentMachinesIsolated runs many machines concurrently,
// each with self-rescheduling events mutating only their own machine's
// state. Under -race this pins that event callbacks share no state across
// sharded machines.
func TestRunUntilConcurrentMachinesIsolated(t *testing.T) {
	const n = 8
	logs := make([][]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m := New(TestConfig())
			var fn func(sim.Cycles)
			fn = func(fire sim.Cycles) {
				logs[i] = append(logs[i], fmt.Sprintf("tick@%d", fire))
				m.Stats.Inc("test.ticks")
				if fire < 100_000 {
					m.Events.Schedule(m.Clock.Now()+1000, "tick", fn)
				}
			}
			m.Events.Schedule(1000, "tick", fn)
			m.RunUntil(200_000, 64)
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if len(logs[i]) != len(logs[0]) {
			t.Fatalf("machine %d fired %d events, machine 0 fired %d", i, len(logs[i]), len(logs[0]))
		}
		for j := range logs[i] {
			if logs[i][j] != logs[0][j] {
				t.Fatalf("machine %d log diverges at %d: %q vs %q", i, j, logs[i][j], logs[0][j])
			}
		}
	}
}
