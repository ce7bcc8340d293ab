package kindle_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"kindle/internal/bench"
	"kindle/internal/core"
	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/persist"
	"kindle/internal/sim"
	"kindle/internal/traffic"
	"kindle/internal/workloads"
)

// updateGolden rewrites testdata/golden instead of comparing against it.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/golden/*.stats instead of comparing")

// goldenCase is one frozen timer-heavy scenario. run returns the final
// simulated clock (stats dumps do not record it) and the full stats dump.
type goldenCase struct {
	name string
	file string // testdata/golden/<file>.stats; rows may share one
	run  func(t *testing.T) (sim.Cycles, []byte)
}

// TestGoldenStats replays every scenario whose outcome hinges on the run
// loop — checkpoint timers, NVM drains, scheduler ticks and arrivals firing
// across long idle stretches — and requires the final clock and the stats
// dump to match the checked-in golden file byte for byte. The files were
// generated by a cycle-group-stepping run loop that visited every idle
// boundary, so they pin the event-to-event loop to that reference on
// whole-system workloads; FuzzRunUntil in internal/machine does the same
// on random event populations. Regenerate with
//
//	go test -run TestGoldenStats -update-golden .
//
// only when a change is meant to alter simulated output.
func TestGoldenStats(t *testing.T) {
	cases := []goldenCase{
		{"replay-fastpaths", "replay", func(t *testing.T) (sim.Cycles, []byte) { return goldenReplay(t, false) }},
		{"replay-slowpaths", "replay", func(t *testing.T) (sim.Cycles, []byte) { return goldenReplay(t, true) }},
		{"longhorizon-quick", "longhorizon_quick", func(t *testing.T) (sim.Cycles, []byte) {
			// Four 4 ms idle windows at a 500 us interval: a run where the
			// timer never fired would match a golden file vacuously.
			return goldenLongHorizon(t, bench.LongHorizonConfig{
				Phases:       4,
				OpsPerPhase:  16,
				IdlePerPhase: 4 * time.Millisecond,
				IdleTick:     2 * time.Microsecond,
				Interval:     500 * time.Microsecond,
				CrashAtPhase: 2,
			}, 10)
		}},
		{"longhorizon-64phase", "longhorizon_64phase", func(t *testing.T) (sim.Cycles, []byte) {
			// 64 phases with 100 ms idle windows — 6.4 s of simulated time,
			// ~20 G cycles, thousands of checkpoints — crashing and
			// recovering halfway through.
			return goldenLongHorizon(t, bench.LongHorizonConfig{
				Phases:       64,
				OpsPerPhase:  64,
				IdlePerPhase: 100 * time.Millisecond,
				IdleTick:     1 * time.Microsecond,
				Interval:     2 * time.Millisecond,
				CrashAtPhase: 32,
			}, 100)
		}},
		{"traffic-open", "traffic_open", func(t *testing.T) (sim.Cycles, []byte) {
			return goldenTraffic(t, quickTrafficSpec(traffic.LoopOpen))
		}},
		{"traffic-closed", "traffic_closed", func(t *testing.T) (sim.Cycles, []byte) {
			return goldenTraffic(t, quickTrafficSpec(traffic.LoopClosed))
		}},
		{"traffic-32tenant", "traffic_32tenant", func(t *testing.T) (sim.Cycles, []byte) {
			// 32 tenants, 2000 ops each, contending for one small machine;
			// a repeat run must reproduce the dump before it is compared.
			spec := traffic.DefaultSpec()
			spec.Tenants = 32
			spec.Ops = 2000
			spec.Seed = 42
			clock, dump := goldenTraffic(t, spec)
			repeatClock, repeat := goldenTraffic(t, spec)
			if clock != repeatClock || !bytes.Equal(dump, repeat) {
				t.Fatalf("repeat traffic run diverged (clock %d vs %d):\n%s", clock, repeatClock, firstLineDiff(dump, repeat))
			}
			return clock, dump
		}},
	}

	written := map[string]bool{} // under -update-golden, later rows sharing a file compare
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clock, dump := c.run(t)
			got := append([]byte(fmt.Sprintf("clock %d\n", clock)), dump...)
			path := filepath.Join("testdata", "golden", c.file+".stats")
			if *updateGolden && !written[path] {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				written[path] = true
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (generate with -update-golden)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s differs from %s:\n%s", c.name, path, firstLineDiff(want, got))
			}
		})
	}
}

// goldenReplay replays a YCSB workload with 300 us rebuild checkpoints and
// a 2 ms idle stretch after every 10,000-record burst: the timers keep
// firing while no instructions are in flight.
func goldenReplay(t *testing.T, slowPaths bool) (sim.Cycles, []byte) {
	wcfg := workloads.SmallYCSB()
	wcfg.Ops = 30_000
	img, err := workloads.YCSB(wcfg)
	if err != nil {
		t.Fatal(err)
	}
	mcfg := machine.TestConfig()
	mcfg.DisableFastPaths = slowPaths
	f := core.New(mcfg)
	if _, err := f.EnablePersistence(persist.Rebuild, 300*time.Microsecond); err != nil {
		t.Fatal(err)
	}
	_, rep, err := f.LaunchInit(img)
	if err != nil {
		t.Fatal(err)
	}
	f.Manager().Start()
	for {
		done, err := rep.Step(10_000)
		if err != nil {
			t.Fatal(err)
		}
		f.RunIdle(2*time.Millisecond, 5*time.Microsecond)
		if done {
			break
		}
	}
	var buf bytes.Buffer
	if err := f.M.Stats.WriteStatsFile(&buf); err != nil {
		t.Fatal(err)
	}
	return f.M.Clock.Now(), buf.Bytes()
}

// goldenLongHorizon runs the checkpoint/crash/recovery lifecycle and
// requires one crash and at least minCheckpoints checkpoints, so the
// golden comparison cannot pass on a run whose timer never fired.
func goldenLongHorizon(t *testing.T, cfg bench.LongHorizonConfig, minCheckpoints uint64) (sim.Cycles, []byte) {
	res, err := bench.RunLongHorizon(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes != 1 {
		t.Fatalf("lifecycle crashed %d times, want 1", res.Crashes)
	}
	if res.Checkpoints < minCheckpoints {
		t.Fatalf("only %d checkpoints started (want >= %d); lifecycle not exercising the timer", res.Checkpoints, minCheckpoints)
	}
	return res.Cycles, res.Dump
}

// quickTrafficSpec is a small mixed four-tenant load in the given loop.
func quickTrafficSpec(loop traffic.LoopKind) traffic.Spec {
	spec := traffic.DefaultSpec()
	spec.Tenants = 4
	spec.Ops = 150
	spec.Footprint = 64 << 10
	spec.Loop = loop
	return spec
}

// goldenTraffic runs spec to completion on a fresh small machine.
func goldenTraffic(t *testing.T, spec traffic.Spec) (sim.Cycles, []byte) {
	m := machine.New(machine.TestConfig())
	eng, err := traffic.New(gemos.Boot(m), spec)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Stats.WriteStatsFile(&buf); err != nil {
		t.Fatal(err)
	}
	return m.Clock.Now(), buf.Bytes()
}

// firstLineDiff renders the first diverging line of two dumps.
func firstLineDiff(want, got []byte) string {
	wl := bytes.Split(want, []byte("\n"))
	gl := bytes.Split(got, []byte("\n"))
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if !bytes.Equal(wl[i], gl[i]) {
			return fmt.Sprintf("line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("dumps differ in length: %d vs %d lines", len(wl), len(gl))
}
