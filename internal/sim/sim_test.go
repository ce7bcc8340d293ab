package sim

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestCyclesConversions(t *testing.T) {
	if got := FromNanos(1); got != 3 {
		t.Fatalf("FromNanos(1) = %d, want 3", got)
	}
	if got := FromNanos(0); got != 0 {
		t.Fatalf("FromNanos(0) = %d, want 0", got)
	}
	if got := FromNanos(-5); got != 0 {
		t.Fatalf("FromNanos(-5) = %d, want 0", got)
	}
	if got := FromDuration(time.Millisecond); got != 3_000_000 {
		t.Fatalf("FromDuration(1ms) = %d, want 3e6", got)
	}
	c := FromDuration(2 * time.Millisecond)
	if c.Millis() != 2 {
		t.Fatalf("Millis = %v, want 2", c.Millis())
	}
	if c.Duration() != 2*time.Millisecond {
		t.Fatalf("Duration = %v, want 2ms", c.Duration())
	}
}

func TestCyclesRoundTripProperty(t *testing.T) {
	f := func(ns uint32) bool {
		c := FromNanos(float64(ns))
		// Round-trip through nanoseconds must be exact for integral ns.
		return c.Nanos() == float64(ns)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCyclesString(t *testing.T) {
	cases := []struct {
		c    Cycles
		want string
	}{
		{FromNanos(10), "10ns"},
		{FromDuration(2 * time.Microsecond), "2.000µs"},
		{FromDuration(3 * time.Millisecond), "3.000ms"},
	}
	for _, tc := range cases {
		if got := tc.c.String(); got != tc.want {
			t.Errorf("String(%d) = %q, want %q", tc.c, got, tc.want)
		}
	}
}

func TestClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Fatal("new clock not at zero")
	}
	c.Advance(100)
	c.AdvanceTo(150)
	if c.Now() != 150 {
		t.Fatalf("Now = %d, want 150", c.Now())
	}
	c.AdvanceTo(150) // same-time is fine
	c.Reset()
	if c.Now() != 0 {
		t.Fatal("Reset did not rewind")
	}
}

func TestClockBackwardsPanics(t *testing.T) {
	c := NewClock()
	c.Advance(10)
	defer func() {
		if recover() == nil {
			t.Fatal("AdvanceTo backwards did not panic")
		}
	}()
	c.AdvanceTo(5)
}

func TestQueueOrdering(t *testing.T) {
	q := NewQueue()
	var order []string
	q.Schedule(30, "c", func(Cycles) { order = append(order, "c") })
	q.Schedule(10, "a", func(Cycles) { order = append(order, "a") })
	q.Schedule(20, "b", func(Cycles) { order = append(order, "b") })
	n := q.RunDue(25)
	if n != 2 || len(order) != 2 || order[0] != "a" || order[1] != "b" {
		t.Fatalf("RunDue(25): fired %d, order %v", n, order)
	}
	q.RunDue(30)
	if len(order) != 3 || order[2] != "c" {
		t.Fatalf("final order %v", order)
	}
}

func TestQueueFIFOAtSameDeadline(t *testing.T) {
	q := NewQueue()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		q.Schedule(5, "e", func(Cycles) { order = append(order, i) })
	}
	q.RunDue(5)
	for i, v := range order {
		if v != i {
			t.Fatalf("events at equal deadline fired out of order: %v", order)
		}
	}
}

func TestQueueRescheduleDuringRun(t *testing.T) {
	q := NewQueue()
	count := 0
	var tick func(now Cycles)
	tick = func(now Cycles) {
		count++
		if count < 3 {
			q.Schedule(now, "again", tick) // immediately due again
		}
	}
	q.Schedule(1, "tick", tick)
	q.RunDue(1)
	if count != 3 {
		t.Fatalf("chained same-deadline events: count=%d, want 3", count)
	}
}

func TestQueueCancel(t *testing.T) {
	q := NewQueue()
	fired := false
	e := q.Schedule(10, "x", func(Cycles) { fired = true })
	q.Cancel(e)
	q.Cancel(e) // double-cancel is a no-op
	q.RunDue(100)
	if fired {
		t.Fatal("cancelled event fired")
	}
	if q.Len() != 0 {
		t.Fatalf("queue not empty after cancel: %d", q.Len())
	}
}

func TestQueueCancelMiddle(t *testing.T) {
	q := NewQueue()
	var got []string
	a := q.Schedule(1, "a", func(Cycles) { got = append(got, "a") })
	b := q.Schedule(2, "b", func(Cycles) { got = append(got, "b") })
	c := q.Schedule(3, "c", func(Cycles) { got = append(got, "c") })
	_ = a
	q.Cancel(b)
	q.RunDue(10)
	if len(got) != 2 || got[0] != "a" || got[1] != "c" {
		t.Fatalf("after middle cancel: %v", got)
	}
	_ = c
}

func TestQueueNextDeadlineAndDrain(t *testing.T) {
	q := NewQueue()
	if _, ok := q.NextDeadline(); ok {
		t.Fatal("empty queue reported a deadline")
	}
	q.Schedule(42, "x", func(Cycles) {})
	if when, ok := q.NextDeadline(); !ok || when != 42 {
		t.Fatalf("NextDeadline = %d,%v", when, ok)
	}
	q.Drain()
	if q.Len() != 0 {
		t.Fatal("Drain left events")
	}
}

func TestQueueNilHandlerPanics(t *testing.T) {
	q := NewQueue()
	defer func() {
		if recover() == nil {
			t.Fatal("nil handler did not panic")
		}
	}()
	q.Schedule(1, "bad", nil)
}

func TestStatsBasics(t *testing.T) {
	s := NewStats()
	s.Inc("a.hits")
	s.Add("a.hits", 4)
	s.Set("a.total", 10)
	if s.Get("a.hits") != 5 || s.Get("a.total") != 10 {
		t.Fatalf("counters wrong: hits=%d total=%d", s.Get("a.hits"), s.Get("a.total"))
	}
	if r := s.Ratio("a.hits", "a.total"); r != 0.5 {
		t.Fatalf("Ratio = %v, want 0.5", r)
	}
	if r := s.Ratio("a.hits", "missing"); r != 0 {
		t.Fatalf("Ratio with zero denominator = %v, want 0", r)
	}
}

func TestStatsDumpAndNames(t *testing.T) {
	s := NewStats()
	s.Inc("b.z")
	s.Inc("a.x")
	s.Inc("a.y")
	cs := s.Registered().Counters
	if len(cs) != 3 || cs[0].Name() != "a.x" || cs[2].Name() != "b.z" {
		t.Fatalf("Registered counters = %v", cs)
	}
	dump := s.Dump("a.")
	if dump == "" {
		t.Fatal("empty dump")
	}
	s.Reset()
	if s.Get("a.x") != 0 {
		t.Fatal("Reset did not zero counters")
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed diverged")
		}
	}
	if NewRNG(0).Uint64() == 0 {
		t.Fatal("zero seed produced zero stream")
	}
}

func TestRNGRanges(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(10); v < 0 || v >= 10 {
			t.Fatalf("Intn out of range: %d", v)
		}
		if v := r.Uint64n(7); v >= 7 {
			t.Fatalf("Uint64n out of range: %d", v)
		}
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %v", f)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestZipfSkew(t *testing.T) {
	r := NewRNG(42)
	z := NewZipf(r, 1000, 0.99)
	counts := make(map[uint64]int)
	const draws = 200000
	for i := 0; i < draws; i++ {
		v := z.Next()
		if v >= 1000 {
			t.Fatalf("zipf out of range: %d", v)
		}
		counts[v]++
	}
	// Rank 0 must be by far the hottest and the top-10 ranks must carry a
	// large share — the defining property YCSB relies on.
	top := 0
	for i := uint64(0); i < 10; i++ {
		top += counts[i]
	}
	if counts[0] < counts[500]*10 {
		t.Fatalf("zipf not skewed: c0=%d c500=%d", counts[0], counts[500])
	}
	if float64(top)/draws < 0.30 {
		t.Fatalf("top-10 share too small: %v", float64(top)/draws)
	}
}

func BenchmarkRNG(b *testing.B) {
	r := NewRNG(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkZipf(b *testing.B) {
	z := NewZipf(NewRNG(1), 1<<20, 0.99)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = z.Next()
	}
}

func BenchmarkEventQueue(b *testing.B) {
	q := NewQueue()
	for i := 0; i < b.N; i++ {
		q.Schedule(Cycles(i), "e", func(Cycles) {})
	}
	q.RunDue(Cycles(b.N))
}

func TestStatsFileRoundTrip(t *testing.T) {
	s := NewStats()
	s.Set("cache.l1.hit", 12345)
	s.Set("nvm.write", 67)
	s.Set("persist.checkpoints", 8)
	var buf bytes.Buffer
	if err := s.WriteStatsFile(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "Begin Simulation Statistics") {
		t.Fatal("missing gem5 header")
	}
	got, err := ParseStatsFile(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range map[string]uint64{"cache.l1.hit": 12345, "nvm.write": 67, "persist.checkpoints": 8} {
		if got[k] != v {
			t.Fatalf("%s = %d, want %d", k, got[k], v)
		}
	}
}

func TestParseStatsFileSkipsNonInteger(t *testing.T) {
	in := `---------- Begin Simulation Statistics ----------
sim_seconds                                  0.001025                       # Number of seconds simulated
sim_ticks                                  1024768500                       # Number of ticks simulated
host_mem_usage                                 673824                       # Number of bytes of host memory used
---------- End Simulation Statistics   ----------
`
	got, err := ParseStatsFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if got["sim_ticks"] != 1024768500 || got["host_mem_usage"] != 673824 {
		t.Fatalf("parsed %v", got)
	}
	if _, ok := got["sim_seconds"]; ok {
		t.Fatal("non-integer stat not skipped")
	}
}

// TestParseStatsFileReadsTotalsNotIntervals pins the cmd/kindle stats-out
// layout: end-of-run totals block first, interval delta blocks appended
// after. ParseStatsFile must return the totals, not the last interval's
// near-zero deltas.
func TestParseStatsFileReadsTotalsNotIntervals(t *testing.T) {
	s := NewStats()
	s.Set("nvm.write", 95)
	var intervals bytes.Buffer
	if err := s.DumpInterval(&intervals); err != nil { // interval 1: delta 95
		t.Fatal(err)
	}
	s.Add("nvm.write", 5)
	var file bytes.Buffer
	if err := s.WriteStatsFile(&file); err != nil { // totals: 100
		t.Fatal(err)
	}
	if err := s.DumpInterval(&intervals); err != nil { // interval 2: delta 5
		t.Fatal(err)
	}
	intervals.WriteTo(&file) // the -stats-out layout: totals, then intervals
	got, err := ParseStatsFile(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got["nvm.write"] != 100 {
		t.Fatalf("nvm.write = %d, want end-of-run total 100", got["nvm.write"])
	}
	blocks, err := ParseStatsBlocks(bytes.NewReader(file.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 3 || blocks[0]["nvm.write"] != 100 ||
		blocks[1]["nvm.write"] != 95 || blocks[2]["nvm.write"] != 5 {
		t.Fatalf("ParseStatsBlocks = %v, want totals block then delta blocks 95, 5", blocks)
	}
}

// failAfterWriter fails every write once budget bytes have been accepted.
type failAfterWriter struct {
	budget int
}

func (w *failAfterWriter) Write(p []byte) (int, error) {
	if len(p) > w.budget {
		n := w.budget
		w.budget = 0
		return n, errFull
	}
	w.budget -= len(p)
	return len(p), nil
}

var errFull = fmt.Errorf("writer full")

func TestDumpIntervalFailedWriteLeavesStateConsistent(t *testing.T) {
	s := NewStats()
	s.Set("x", 7)
	if err := s.DumpInterval(&failAfterWriter{budget: 10}); err == nil {
		t.Fatal("DumpInterval to a failing writer did not error")
	}
	if s.IntervalCount() != 0 {
		t.Fatalf("failed dump advanced IntervalCount to %d", s.IntervalCount())
	}
	var buf bytes.Buffer
	if err := s.DumpInterval(&buf); err != nil {
		t.Fatal(err)
	}
	blocks, err := ParseStatsBlocks(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(blocks) != 1 || blocks[0]["interval.index"] != 1 || blocks[0]["x"] != 7 {
		t.Fatalf("retry after failed dump produced %v, want index 1 with full delta 7", blocks)
	}
}

func TestHistCounterNameCollisionPanics(t *testing.T) {
	s := NewStats()
	s.Inc("dual")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Hist on an existing counter name did not panic")
			}
		}()
		s.Hist("dual")
	}()

	// Reverse order — counter created after the histogram — is caught at
	// registration too, so a collision can never silently drop a stat.
	s2 := NewStats()
	s2.Hist("dual").Observe(1)
	defer func() {
		if recover() == nil {
			t.Error("counter registration under a histogram name did not panic")
		}
	}()
	s2.Inc("dual")
}

func TestParseStatsFileIgnoresOutsideBlock(t *testing.T) {
	in := "noise 42\n---------- Begin Simulation Statistics ----------\nreal 7 #\n---------- End Simulation Statistics   ----------\ntrailing 9\n"
	got, err := ParseStatsFile(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got["real"] != 7 {
		t.Fatalf("parsed %v", got)
	}
}
