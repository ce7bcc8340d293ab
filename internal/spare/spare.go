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
// it does not. It keeps at most GOMAXPROCS spares under each key, one for
// every goroutine that can run at once, and drops the rest for the
// collector. The zero value is an empty list, safe for concurrent use.
type List[K comparable, T any] struct {
	mu    sync.Mutex
	spare map[K][]T
}

// Get takes the spare filed last under k; ok is false when there is none.
func (l *List[K, T]) Get(k K) (x T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spare[k]
	if len(s) == 0 {
		return x, false
	}
	x = s[len(s)-1]
	var zero T
	s[len(s)-1] = zero // the list no longer keeps x alive
	l.spare[k] = s[:len(s)-1]
	return x, true
}

// Put files x under k for a later Get, or drops it when k already holds
// GOMAXPROCS spares. The caller must not use x afterwards.
func (l *List[K, T]) Put(k K, x T) {
	bound := runtime.GOMAXPROCS(0)
	l.mu.Lock()
	defer l.mu.Unlock()
	s := l.spare[k]
	if len(s) >= bound {
		return
	}
	if l.spare == nil {
		l.spare = make(map[K][]T)
	}
	l.spare[k] = append(s, x)
}
