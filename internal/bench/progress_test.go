package bench

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for Tracker tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// TestTrackerSnapshotAndETA pins the ETA arithmetic: average completed-task
// duration times remaining tasks, divided across the worker pool.
func TestTrackerSnapshotAndETA(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	tr := newTrackerAt(clk.now)
	tr.SetWorkers(2)
	tr.AddTasks(8)
	tr.ExperimentStarted("Figure 4a")

	if s := tr.Snapshot(); s.ETASec != -1 {
		t.Fatalf("ETA before any completion = %v, want -1", s.ETASec)
	}

	// Two tasks of 10s each -> avg 10s; 6 remain over 2 workers -> 30s.
	for i := 0; i < 2; i++ {
		id := tr.taskStarted("fig4a/64MB/persistent")
		clk.advance(10 * time.Second)
		tr.taskFinished(id)
	}
	tr.AddRecords(1000)
	tr.AddRecords(500)
	id := tr.taskStarted("fig4a/128MB/rebuild")
	s := tr.Snapshot()
	if s.TasksDone != 2 || s.TasksPlanned != 8 {
		t.Fatalf("tasks = %d/%d, want 2/8", s.TasksDone, s.TasksPlanned)
	}
	if s.Fraction != 0.25 {
		t.Fatalf("fraction = %v", s.Fraction)
	}
	if s.ETASec != 30 {
		t.Fatalf("ETA = %v, want 30", s.ETASec)
	}
	if s.RecordsReplayed != 1500 {
		t.Fatalf("records = %d", s.RecordsReplayed)
	}
	if len(s.Active) != 1 || s.Active[0].Label != "fig4a/128MB/rebuild" {
		t.Fatalf("active = %+v", s.Active)
	}
	if len(s.Experiments) != 1 || s.Experiments[0].State != "running" {
		t.Fatalf("experiments = %+v", s.Experiments)
	}
	if s.StartedUTC != "2026-01-02T03:04:05Z" {
		t.Fatalf("started = %q", s.StartedUTC)
	}

	// Finish everything: fraction 1, ETA 0, experiment done.
	tr.taskFinished(id)
	for i := 0; i < 5; i++ {
		tr.taskFinished(tr.taskStarted("x"))
	}
	tr.ExperimentFinished("Figure 4a")
	s = tr.Snapshot()
	if s.Fraction != 1 || s.ETASec != 0 {
		t.Fatalf("final fraction/ETA = %v/%v", s.Fraction, s.ETASec)
	}
	if s.Experiments[0].State != "done" {
		t.Fatalf("experiment state = %q", s.Experiments[0].State)
	}
	if g := tr.Gauges(); g["kindle_bench_fraction"] != 1 || g["kindle_bench_records_replayed"] != 1500 {
		t.Fatalf("gauges = %v", g)
	}
}

// TestTrackerETAMonotoneOutOfOrder is the satellite pin for out-of-order
// completions under -parallel: tasks started together but finishing in
// shuffled order (short ones first, a long straggler late) must never make
// the reported ETA climb — a late long task folds into the average and
// would otherwise raise the raw estimate mid-run.
func TestTrackerETAMonotoneOutOfOrder(t *testing.T) {
	clk := &fakeClock{t: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}
	tr := newTrackerAt(clk.now)
	tr.SetWorkers(1)
	tr.AddTasks(12)

	// Six tasks start together; they complete in shuffled order with wildly
	// different durations (the straggler last), snapshotting after each.
	ids := make([]int, 6)
	for i := range ids {
		ids[i] = tr.taskStarted("task")
	}
	finishOrder := []int{2, 0, 5, 1, 4, 3}
	durs := []time.Duration{ // indexed by finish order: straggler at the end
		1 * time.Second, 1 * time.Second, 2 * time.Second,
		1 * time.Second, 2 * time.Second, 60 * time.Second,
	}
	last := -1.0
	elapsed := time.Duration(0)
	for step, which := range finishOrder {
		d := durs[step] - elapsed // advance to this task's absolute finish time
		if d > 0 {
			clk.advance(d)
			elapsed += d
		}
		tr.taskFinished(ids[which])
		s := tr.Snapshot()
		if s.ETASec <= 0 {
			t.Fatalf("step %d: ETA = %v, want > 0 with %d tasks remaining", step, s.ETASec, 12-step-1)
		}
		if last >= 0 && s.ETASec > last {
			t.Fatalf("step %d: ETA rose %.1fs -> %.1fs after a completion", step, last, s.ETASec)
		}
		last = s.ETASec
	}

	// New planned work resets the cap: the ETA may legitimately rise.
	tr.AddTasks(100)
	if s := tr.Snapshot(); s.ETASec <= last {
		t.Fatalf("ETA after AddTasks = %v, want > %v (cap must reset)", s.ETASec, last)
	}
}

// TestTrackerNilSafe: a nil tracker is a no-op everywhere, so call sites
// need no guards.
func TestTrackerNilSafe(t *testing.T) {
	var tr *Tracker
	tr.SetWorkers(4)
	tr.AddTasks(10)
	tr.AddRecords(10)
	tr.ExperimentStarted("x")
	tr.ExperimentFinished("x")
	tr.taskFinished(tr.taskStarted("y"))
	if s := tr.Snapshot(); s.TasksPlanned != 0 || s.ETASec != -1 {
		t.Fatalf("nil snapshot = %+v", s)
	}
}

// TestForEachTaskTracksAndDelegates: every index runs once, completions are
// counted even on error paths, and labels surface while tasks are active.
func TestForEachTaskTracksAndDelegates(t *testing.T) {
	tr := NewTracker()
	opt := Options{Parallel: 2, Progress: tr}
	boom := errors.New("boom")
	ran := make([]bool, 6)
	var mu sync.Mutex
	err := forEachTask(opt, len(ran), func(i int) string { return "job" }, func(i int) error {
		mu.Lock()
		ran[i] = true
		mu.Unlock()
		if i == 1 {
			return boom
		}
		return nil
	})
	if err != boom {
		t.Fatalf("err = %v", err)
	}
	for i, r := range ran {
		if !r {
			t.Fatalf("index %d never ran", i)
		}
	}
	s := tr.Snapshot()
	if s.TasksDone != 6 || s.TasksPlanned != 6 || s.Fraction != 1 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Workers != 2 {
		t.Fatalf("workers = %d", s.Workers)
	}

	// Without a tracker it is plain core.ForEachIndexed.
	n := 0
	if err := forEachTask(Options{Parallel: 1}, 3, func(int) string { return "" }, func(int) error { n++; return nil }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("ran %d of 3 without tracker", n)
	}
}

// TestTrackerLine pins the stderr progress line's shape.
func TestTrackerLine(t *testing.T) {
	s := TrackerSnapshot{TasksDone: 3, TasksPlanned: 12, Fraction: 0.25, ETASec: 90,
		RecordsReplayed: 4096,
		Experiments: []ExperimentStatus{
			{Name: "Figure 5", State: "running"},
			{Name: "Table I", State: "done"},
		}}
	if got, want := s.Line(), " 25% (3/12 tasks, 4096 records, eta 1m30s)  [Figure 5]"; got != want {
		t.Fatalf("Line() = %q, want %q", got, want)
	}
	empty := TrackerSnapshot{ETASec: -1}
	if got, want := empty.Line(), "  0% (0/0 tasks, 0 records, eta --)"; got != want {
		t.Fatalf("Line() = %q, want %q", got, want)
	}
}

// TestIntervalsParallelByteIdentical is the satellite pin for interval
// stats under the parallel runner: the interval-stats experiment run with
// many workers (and with concurrent sibling simulations in flight) renders
// byte-identically to a sequential run — the per-machine clocks and stats
// are fully isolated, so host scheduling cannot skew dump windows.
func TestIntervalsParallelByteIdentical(t *testing.T) {
	opt := Options{Scale: smokeOpts.Scale, Parallel: 1}
	seq, err := Intervals(opt)
	if err != nil {
		t.Fatal(err)
	}
	want := seq.Render()

	// Eight concurrent replicas under a shared worker pool, racing each
	// other for host CPU, each with a live progress tracker attached.
	const replicas = 8
	par := Options{Scale: smokeOpts.Scale, Parallel: replicas, Progress: NewTracker()}
	outs := make([]string, replicas)
	if err := forEachTask(par, replicas, func(i int) string { return "intervals" }, func(i int) error {
		r, err := Intervals(par)
		if err != nil {
			return err
		}
		outs[i] = r.Render()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	for i, got := range outs {
		if got != want {
			t.Errorf("replica %d differs from sequential:\n--- sequential ---\n%s\n--- parallel ---\n%s", i, want, got)
		}
	}
	if s := par.Progress.Snapshot(); s.TasksDone != replicas {
		t.Fatalf("tracker saw %d tasks, want %d", s.TasksDone, replicas)
	}
}
