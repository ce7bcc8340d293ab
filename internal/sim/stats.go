package sim

import (
	"fmt"
	"slices"
	"strings"
	"sync"
)

// Stats is a flat registry of named counters and histograms, mirroring
// gem5's stats files. Components register counters under dotted names
// ("cache.l1d.miss", "nvm.write.drained"). Counters are plain uint64 cells;
// Kindle simulations are single-goroutine so no synchronization is needed.
//
// Hot paths resolve a *Counter handle once at construction (Counter) and
// bump it without further map lookups; the name-based Inc/Add/Set/Get
// remain for cold paths. Histograms (log2-bucketed distributions) live
// alongside the counters with the same handle pattern (Hist).
type Stats struct {
	counters map[string]*Counter
	hists    map[string]*Histogram

	// mu guards stats against Registered, the one reader on other
	// goroutines (the monitor endpoint). Registration takes it; the
	// simulation goroutine's own reads and the hot paths (Counter.Inc/Add,
	// Histogram.Observe) never do.
	mu sync.Mutex
	// stats holds every registered counter and histogram in name order:
	// each is inserted at its place when it registers, and every renderer
	// walks this slice, so no reader sorts. A renderer must not register a
	// stat while it walks it.
	stats []stat

	// intervalSnap is the counter baseline of the current interval
	// (DumpInterval); nil until the first interval dump.
	intervalSnap map[string]uint64
	intervals    int
}

// stat is one registered stat: exactly one of c and h is set.
type stat struct {
	c *Counter
	h *Histogram
}

func (e stat) name() string {
	if e.c != nil {
		return e.c.name
	}
	return e.h.name
}

// StatIndex is a snapshot of everything registered in a Stats: the counter
// and histogram handles in name order. Later registrations never change a
// returned index; the handles themselves stay live (read them with
// Counter.Sample / Histogram.Sample from other goroutines).
type StatIndex struct {
	Counters []*Counter
	Hists    []*Histogram
}

// Registered returns the registered stats in name order. It is safe from
// any goroutine at any time: it copies the handles under the registry's
// lock, so a registration that races with it appears in a later index.
func (s *Stats) Registered() *StatIndex {
	s.mu.Lock()
	defer s.mu.Unlock()
	idx := &StatIndex{}
	for _, e := range s.stats {
		if e.c != nil {
			idx.Counters = append(idx.Counters, e.c)
		} else {
			idx.Hists = append(idx.Hists, e.h)
		}
	}
	return idx
}

// insert files a newly registered stat at its place in name order.
func (s *Stats) insert(e stat) {
	name := e.name()
	s.mu.Lock()
	defer s.mu.Unlock()
	i, _ := slices.BinarySearchFunc(s.stats, name, func(e stat, name string) int {
		return strings.Compare(e.name(), name)
	})
	s.stats = slices.Insert(s.stats, i, e)
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the handle registered under name, creating it on first
// use. Callers cache the handle; Inc/Add on it never touch the map. The
// handle and the name-based methods alias the same cell.
func (s *Stats) Counter(name string) *Counter {
	c := s.counters[name]
	if c == nil {
		if _, clash := s.hists[name]; clash {
			panic(fmt.Sprintf("sim: stat %q already registered as a histogram", name))
		}
		c = &Counter{name: name}
		s.counters[name] = c
		s.insert(stat{c: c})
	}
	return c
}

// Add increments counter name by delta.
func (s *Stats) Add(name string, delta uint64) { s.Counter(name).v += delta }

// Inc increments counter name by one.
func (s *Stats) Inc(name string) { s.Counter(name).v++ }

// Set overwrites counter name.
func (s *Stats) Set(name string, v uint64) { s.Counter(name).v = v }

// Get returns counter name (zero when never touched; never registers).
func (s *Stats) Get(name string) uint64 {
	if c := s.counters[name]; c != nil {
		return c.v
	}
	return 0
}

// Hist returns the histogram registered under name, creating it on first
// use. Callers cache the pointer; Observe on it never touches the map.
func (s *Stats) Hist(name string) *Histogram {
	h := s.hists[name]
	if h == nil {
		if _, clash := s.counters[name]; clash {
			panic(fmt.Sprintf("sim: stat %q already registered as a counter", name))
		}
		h = &Histogram{name: name}
		s.hists[name] = h
		s.insert(stat{h: h})
	}
	return h
}

// Reset zeroes every counter and histogram but keeps registrations (handles
// stay valid). The interval baseline is cleared too.
func (s *Stats) Reset() {
	for _, e := range s.stats {
		if e.c != nil {
			e.c.v = 0
		} else {
			e.h.Reset()
		}
	}
	s.intervalSnap = nil
	s.intervals = 0
}

// Dump renders all counters and histograms with a given name prefix,
// gem5-stats style.
func (s *Stats) Dump(prefix string) string {
	var b strings.Builder
	s.forEachStat(func(name string, v uint64, fv float64, isFloat bool) {
		if !strings.HasPrefix(name, prefix) {
			return
		}
		if isFloat {
			fmt.Fprintf(&b, "%-*s %12.6f\n", NameColWidth, name, fv)
		} else {
			fmt.Fprintf(&b, "%-*s %12d\n", NameColWidth, name, v)
		}
	})
	return b.String()
}

// forEachStat visits every stat line (counters and expanded histograms)
// in one sorted sequence: a histogram's lines appear at the position of
// its base name.
func (s *Stats) forEachStat(fn func(name string, v uint64, fv float64, isFloat bool)) {
	for _, e := range s.stats {
		if e.h != nil {
			e.h.ForEachStat(fn)
		} else {
			fn(e.c.name, e.c.v, 0, false)
		}
	}
}

// Ratio returns num/den as a float, or 0 when den is 0.
func (s *Stats) Ratio(num, den string) float64 {
	d := s.Get(den)
	if d == 0 {
		return 0
	}
	return float64(s.Get(num)) / float64(d)
}
