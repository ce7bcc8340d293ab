package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestCounterHandleAliasesName pins the core contract of the handle API:
// the handle and the name-based methods read and write the same cell, in
// both directions.
func TestCounterHandleAliasesName(t *testing.T) {
	s := NewStats()
	c := s.Counter("cache.l1.hit")
	if got := s.Counter("cache.l1.hit"); got != c {
		t.Fatalf("second Counter call returned a different handle: %p vs %p", got, c)
	}
	c.Inc()
	c.Add(4)
	if got := s.Get("cache.l1.hit"); got != 5 {
		t.Fatalf("name view after handle writes = %d, want 5", got)
	}
	s.Add("cache.l1.hit", 10)
	s.Inc("cache.l1.hit")
	if got := c.Value(); got != 16 {
		t.Fatalf("handle view after name writes = %d, want 16", got)
	}
	s.Set("cache.l1.hit", 3)
	if got := c.Value(); got != 3 {
		t.Fatalf("handle view after Set = %d, want 3", got)
	}
	c.Set(9)
	if got := s.Get("cache.l1.hit"); got != 9 {
		t.Fatalf("name view after handle Set = %d, want 9", got)
	}
	if c.Name() != "cache.l1.hit" {
		t.Fatalf("handle name = %q", c.Name())
	}
	// A handle obtained after name-based registration aliases too.
	s.Inc("late")
	if got := s.Counter("late").Value(); got != 1 {
		t.Fatalf("handle for pre-existing name = %d, want 1", got)
	}
}

// TestCounterResetKeepsHandles verifies Reset zeroes the value but leaves
// every previously obtained handle live and aliased.
func TestCounterResetKeepsHandles(t *testing.T) {
	s := NewStats()
	c := s.Counter("x")
	c.Add(7)
	s.Reset()
	if c.Value() != 0 || s.Get("x") != 0 {
		t.Fatalf("Reset left x at handle=%d name=%d", c.Value(), s.Get("x"))
	}
	c.Inc()
	if s.Get("x") != 1 {
		t.Fatalf("handle detached after Reset: name view = %d, want 1", s.Get("x"))
	}
	if cs := s.Registered().Counters; len(cs) != 1 || cs[0] != c {
		t.Fatalf("registration lost across Reset: %v", cs)
	}
}

// TestCounterSnapshotAndIntervals drives DumpInterval through
// handle-written counters: deltas must track handle increments and
// per-block deltas must sum to the end-of-run total.
func TestCounterSnapshotAndIntervals(t *testing.T) {
	s := NewStats()
	c := s.Counter("nvm.write")
	c.Add(8)

	var buf bytes.Buffer
	if err := s.DumpInterval(&buf); err != nil {
		t.Fatal(err)
	}
	c.Add(4)
	s.Inc("nvm.write") // mixed handle + name writes within one interval
	if err := s.DumpInterval(&buf); err != nil {
		t.Fatal(err)
	}
	blocks, err := ParseStatsBlocks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 2 {
		t.Fatalf("got %d blocks, want 2", len(blocks))
	}
	if blocks[0]["nvm.write"] != 8 || blocks[1]["nvm.write"] != 5 {
		t.Fatalf("interval deltas = %d, %d; want 8, 5", blocks[0]["nvm.write"], blocks[1]["nvm.write"])
	}
	if sum := blocks[0]["nvm.write"] + blocks[1]["nvm.write"]; sum != c.Value() {
		t.Fatalf("deltas sum to %d, total is %d", sum, c.Value())
	}
}

// TestCounterHistogramCollisionPanics pins both registration orders: a
// Counter handle under a histogram name and a histogram under a counter
// name must fail loudly.
func TestCounterHistogramCollisionPanics(t *testing.T) {
	s := NewStats()
	s.Hist("lat")
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Error("Counter under a histogram name did not panic")
			} else if !strings.Contains(r.(string), "lat") {
				t.Errorf("panic message %q does not name the stat", r)
			}
		}()
		s.Counter("lat")
	}()

	s2 := NewStats()
	s2.Counter("n")
	defer func() {
		if recover() == nil {
			t.Error("Hist under a counter-handle name did not panic")
		}
	}()
	s2.Hist("n")
}

// TestCounterHandleNoAlloc pins the hot-path property the handles exist
// for: Inc/Add on a resolved handle must not allocate.
func TestCounterHandleNoAlloc(t *testing.T) {
	s := NewStats()
	c := s.Counter("hot")
	if allocs := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); allocs != 0 {
		t.Fatalf("handle Inc/Add allocates %v per run", allocs)
	}
}

// TestCounterRegistrationAllocs: registering a stat costs its handle and a
// share of the registry's growth, not a copy of everything registered
// before it. Registering 300 distinct counters, in no particular name
// order, in a fresh registry may allocate at most 2 objects per counter.
func TestCounterRegistrationAllocs(t *testing.T) {
	names := make([]string, 300)
	for i := range names {
		names[i] = fmt.Sprintf("stat.%03d", i*7%len(names))
	}
	avg := testing.AllocsPerRun(10, func() {
		s := NewStats()
		for _, name := range names {
			s.Counter(name)
		}
	})
	t.Logf("%.0f allocations for %d counters", avg, len(names))
	if avg > float64(2*len(names)) {
		t.Fatalf("registering %d counters allocates %.0f times, want at most %d", len(names), avg, 2*len(names))
	}
}
