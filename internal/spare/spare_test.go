package spare

import (
	"runtime"
	"sync"
	"testing"
)

func TestListFilesByKey(t *testing.T) {
	var l List[int, []uint64]
	if _, ok := l.Get(8); ok {
		t.Fatal("empty list handed out a spare")
	}
	a, b := make([]uint64, 8), make([]uint64, 16)
	l.Put(8, a)
	l.Put(16, b)
	if got, ok := l.Get(16); !ok || &got[0] != &b[0] {
		t.Fatal("Get(16) did not return the spare filed under 16")
	}
	if _, ok := l.Get(16); ok {
		t.Fatal("Get(16) handed out one spare twice")
	}
	if got, ok := l.Get(8); !ok || &got[0] != &a[0] {
		t.Fatal("Get(8) did not return the spare filed under 8")
	}
}

func TestListKeepsAtMostGOMAXPROCS(t *testing.T) {
	var l List[struct{}, *int]
	bound := runtime.GOMAXPROCS(0)
	for i := 0; i < bound+3; i++ {
		l.Put(struct{}{}, new(int))
	}
	n := 0
	for {
		if _, ok := l.Get(struct{}{}); !ok {
			break
		}
		n++
	}
	if n != bound {
		t.Fatalf("list kept %d spares, want GOMAXPROCS = %d", n, bound)
	}
}

// TestListKeepsWhatWasOutAtOnce: owners that held more values at once
// than there are Ps get every one of them back, and the list keeps no more
// than that.
func TestListKeepsWhatWasOutAtOnce(t *testing.T) {
	var l List[struct{}, *int]
	held := runtime.GOMAXPROCS(0) + 3
	var out []*int
	for i := 0; i < held; i++ {
		if _, ok := l.Get(struct{}{}); ok {
			t.Fatal("empty list handed out a spare")
		}
		out = append(out, new(int)) // what a caller makes on a miss
	}
	for _, x := range out {
		l.Put(struct{}{}, x)
	}
	l.Put(struct{}{}, new(int)) // no Get handed this one out
	n := 0
	for {
		if _, ok := l.Get(struct{}{}); !ok {
			break
		}
		n++
	}
	if n != held {
		t.Fatalf("list kept %d spares, want the %d that were out at once", n, held)
	}
}

// TestListConcurrent hands spares between goroutines; under -race it
// checks that every Put happens before the Get that takes its value.
func TestListConcurrent(t *testing.T) {
	var l List[int, []int]
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				s, ok := l.Get(4)
				if !ok {
					s = make([]int, 4)
				}
				for j := range s {
					s[j] = i
				}
				l.Put(4, s)
			}
		}()
	}
	wg.Wait()
}
