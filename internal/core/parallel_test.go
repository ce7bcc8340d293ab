package core

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
)

func TestForEachIndexedRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		const n = 37
		var counts [n]atomic.Int64
		err := ForEachIndexed(workers, n, func(i int) error {
			counts[i].Add(1)
			return nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestForEachIndexedFirstErrorByIndex(t *testing.T) {
	errA := errors.New("a")
	for _, workers := range []int{1, 4} {
		err := ForEachIndexed(workers, 10, func(i int) error {
			switch i {
			case 3:
				return errA
			case 7:
				return errors.New("b")
			}
			return nil
		})
		// The lowest-index error must win regardless of completion order.
		if err != errA {
			t.Fatalf("workers=%d: got %v, want %v", workers, err, errA)
		}
	}
}

func TestForEachIndexedBoundsWorkers(t *testing.T) {
	const workers = 3
	var active, peak atomic.Int64
	var mu sync.Mutex
	err := ForEachIndexed(workers, 24, func(i int) error {
		cur := active.Add(1)
		mu.Lock()
		if cur > peak.Load() {
			peak.Store(cur)
		}
		mu.Unlock()
		defer active.Add(-1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("observed %d concurrent tasks, worker bound is %d", p, workers)
	}
}

func TestForEachIndexedZeroItems(t *testing.T) {
	called := false
	if err := ForEachIndexed(4, 0, func(int) error { called = true; return nil }); err != nil {
		t.Fatal(err)
	}
	if called {
		t.Fatal("fn called for n=0")
	}
}
