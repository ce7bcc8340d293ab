// Package spare keeps bounded free lists of host storage that one owner
// hands to the next when it is done: the cache tag stores and TLB arrays
// of a finished machine, the decode state of a closed trace source. A
// process that builds machine after machine, or opens stream after
// stream, then allocates that storage once.
//
// A List is a map of slices behind a mutex, not the standard library's
// Pool type, which keeps the first value put on a P in a private slot that
// a Get on another P cannot reach: a hand-off between goroutines that run
// on different Ps would miss and allocate afresh. A List hands every spare
// to whichever goroutine asks next, and keeps it across collections.
package spare

import (
	"runtime"
	"sync"
)

// List is a free list of spare values filed under a comparable key: the
// geometry of the storage where its size depends on one, struct{} where
// it does not. Under each key it keeps as many spares as its owners ever
// held at once, and at least GOMAXPROCS: a Get counts as taking a value
// out (a Get that finds none too, since its caller makes one) and a Put
// as giving one back. So a sharded replay that runs more workers than
// there are Ps gets every worker's storage back on its next call, while a
// Put of storage that no Get handed out is kept only up to GOMAXPROCS.
// The zero value is an empty list, safe for concurrent use.
type List[K comparable, T any] struct {
	mu      sync.Mutex
	shelves map[K]*shelf[T]
}

// shelf is what a List files under one key.
type shelf[T any] struct {
	spare []T
	out   int // values taken by Get and not yet put back
	most  int // the most values ever out at once
}

// shelf returns the shelf for k, making it on first use. l.mu is held.
func (l *List[K, T]) shelf(k K) *shelf[T] {
	sh := l.shelves[k]
	if sh == nil {
		if l.shelves == nil {
			l.shelves = make(map[K]*shelf[T])
		}
		sh = &shelf[T]{}
		l.shelves[k] = sh
	}
	return sh
}

// Get takes the spare filed last under k; ok is false when there is none
// and the caller makes its own.
func (l *List[K, T]) Get(k K) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	sh := l.shelf(k)
	sh.out++
	sh.most = max(sh.most, sh.out)
	s := sh.spare
	if len(s) == 0 {
		return x, false
	}
	x = s[len(s)-1]
	var zero T
	s[len(s)-1] = zero // the list no longer keeps x alive
	sh.spare = s[:len(s)-1]
	return x, true
}

// Put files x under k for a later Get, or drops it when k already holds
// as many spares as were ever out at once, or GOMAXPROCS if that is more.
// The caller must not use x afterwards.
func (l *List[K, T]) Put(k K, x T) {
	bound := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	sh := l.shelf(k)
	sh.out = max(sh.out-1, 0)
	if len(sh.spare) >= max(bound, sh.most) {
		return
	}
	sh.spare = append(sh.spare, x)
}
