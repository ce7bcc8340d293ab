// Package obs is Kindle's observability layer: a low-overhead structured
// event tracer plus the exporters that make a whole simulation — ticks,
// checkpoints, crash, recovery — inspectable after the fact.
//
// The tracer is a fixed-capacity ring buffer of value-typed events, gated
// by a category bitmask. Hot paths guard emission with Enabled so a
// disabled tracer costs one nil/mask check and zero allocations; event
// names and argument labels are static strings, so emission itself does
// not allocate either (the ring slot is overwritten in place). When the
// ring fills, the oldest events are dropped — the tracer behaves as a
// flight recorder keeping the most recent window of the run.
//
// Exported traces use the Chrome trace-event JSON format, so a simulation
// opens directly in chrome://tracing or Perfetto (ui.perfetto.dev).
package obs

import (
	"fmt"
	"strings"

	"kindle/internal/sim"
)

// Category classifies trace events; the tracer records only categories
// present in its mask. Categories are bits so they compose.
type Category uint32

const (
	// CatMem covers DRAM/NVM device accesses behind the controller.
	CatMem Category = 1 << iota
	// CatCache covers cache-hierarchy misses and write-backs.
	CatCache
	// CatTLB covers TLB misses and shootdowns.
	CatTLB
	// CatPTWalk covers hardware page-table walks.
	CatPTWalk
	// CatCheckpoint covers persistence checkpoints and their phases.
	CatCheckpoint
	// CatRecovery covers post-crash recovery and its phases.
	CatRecovery
	// CatSyscall covers gemOS syscalls and page faults.
	CatSyscall

	// CatAll enables every category.
	CatAll Category = 1<<iota - 1
)

// categoryNames maps flag-spelling names to bits, in display order.
var categoryNames = []struct {
	name string
	bit  Category
}{
	{"mem", CatMem},
	{"cache", CatCache},
	{"tlb", CatTLB},
	{"ptwalk", CatPTWalk},
	{"checkpoint", CatCheckpoint},
	{"recovery", CatRecovery},
	{"syscall", CatSyscall},
}

// ParseCategories converts a comma-separated list ("mem,checkpoint",
// "all", "") into a category mask. The empty string yields zero
// (tracing disabled).
func ParseCategories(s string) (Category, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return 0, nil
	}
	var mask Category
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "all" {
			mask |= CatAll
			continue
		}
		found := false
		for _, cn := range categoryNames {
			if cn.name == part {
				mask |= cn.bit
				found = true
				break
			}
		}
		if !found {
			return 0, fmt.Errorf("obs: unknown trace category %q (have mem, cache, tlb, ptwalk, checkpoint, recovery, syscall, all)", part)
		}
	}
	return mask, nil
}

// String renders the mask as the comma-separated list ParseCategories
// accepts.
func (c Category) String() string {
	if c == 0 {
		return "none"
	}
	if c&CatAll == CatAll {
		return "all"
	}
	var parts []string
	for _, cn := range categoryNames {
		if c&cn.bit != 0 {
			parts = append(parts, cn.name)
		}
	}
	return strings.Join(parts, ",")
}

// name returns the single-category display name (first match).
func (c Category) name() string {
	for _, cn := range categoryNames {
		if c&cn.bit != 0 {
			return cn.name
		}
	}
	return "other"
}

// EventKind distinguishes the trace-event shapes the tracer records.
type EventKind uint8

const (
	// KindInstant is a point-in-time marker.
	KindInstant EventKind = iota
	// KindSpan is a duration event (start + length in cycles).
	KindSpan
	// KindCounter samples a named value over time.
	KindCounter
)

// Event is one recorded trace event. It is a plain value: copying it into
// the ring allocates nothing as long as Name/Arg are static strings.
type Event struct {
	Cat  Category
	Kind EventKind
	Name string
	Ts   sim.Cycles // start time
	Dur  sim.Cycles // span length (KindSpan only)
	Arg  string     // optional numeric-argument label ("" = none)
	Val  uint64     // argument / counter value
}

// Config selects what a machine's tracer records.
type Config struct {
	// Categories enables tracing for the masked categories; zero disables
	// tracing entirely (the machine keeps a nil tracer).
	Categories Category
}

// DefaultCapacity is the ring capacity, in events, of a machine's tracer.
const DefaultCapacity = 1 << 16

// EventSink receives a copy of every event the tracer records, in emission
// order, on the emitting (simulation) goroutine. Sinks power live fan-out —
// the monitor endpoint's SSE stream — and must never block: do bounded
// hand-off and drop-and-count, or the hot path stalls with them.
type EventSink interface {
	TraceEvent(Event)
}

// Tracer records events into a ring buffer. A nil *Tracer is a valid,
// permanently-disabled tracer: every method is nil-safe, so components
// hold a plain pointer and need no wiring when tracing is off.
type Tracer struct {
	mask  Category
	clock *sim.Clock
	ring  []Event
	head  uint64 // total events ever emitted
	sink  EventSink
}

// New builds a tracer over the machine clock. capacity <= 0 selects
// DefaultCapacity; a zero mask records nothing but still accepts calls.
func New(clock *sim.Clock, capacity int, mask Category) *Tracer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Tracer{mask: mask, clock: clock, ring: make([]Event, capacity)}
}

// Enabled reports whether events of category c would be recorded. Hot
// paths call it before assembling event arguments.
func (t *Tracer) Enabled(c Category) bool {
	return t != nil && t.mask&c != 0
}

// SetSink installs (nil removes) a live event sink. Install before the run
// starts: the sink is read on the emission path without synchronization.
// A nil tracer ignores the call (there is nothing to stream).
func (t *Tracer) SetSink(s EventSink) {
	if t != nil {
		t.sink = s
	}
}

// emit stores e in the ring, overwriting the oldest event when full, and
// forwards it to the live sink when one is attached (one nil check when
// not — and emit only runs for enabled categories in the first place).
func (t *Tracer) emit(e Event) {
	t.ring[t.head%uint64(len(t.ring))] = e
	t.head++
	if t.sink != nil {
		t.sink.TraceEvent(e)
	}
}

// Instant records a point event at the current simulated time. arg may be
// "" when there is no numeric payload.
func (t *Tracer) Instant(c Category, name, arg string, val uint64) {
	if !t.Enabled(c) {
		return
	}
	t.emit(Event{Cat: c, Kind: KindInstant, Name: name, Ts: t.clock.Now(), Arg: arg, Val: val})
}

// Span records a duration event covering [start, start+dur).
func (t *Tracer) Span(c Category, name string, start, dur sim.Cycles, arg string, val uint64) {
	if !t.Enabled(c) {
		return
	}
	t.emit(Event{Cat: c, Kind: KindSpan, Name: name, Ts: start, Dur: dur, Arg: arg, Val: val})
}

// Counter samples a named value at the current simulated time (rendered
// as a counter track in the trace viewer).
func (t *Tracer) Counter(c Category, name string, val uint64) {
	if !t.Enabled(c) {
		return
	}
	t.emit(Event{Cat: c, Kind: KindCounter, Name: name, Ts: t.clock.Now(), Val: val})
}

// Len reports how many events the ring currently holds.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	if t.head < uint64(len(t.ring)) {
		return int(t.head)
	}
	return len(t.ring)
}

// Cap reports the ring capacity in events.
func (t *Tracer) Cap() int {
	if t == nil {
		return 0
	}
	return len(t.ring)
}

// Dropped reports how many events were overwritten because the ring was
// full.
func (t *Tracer) Dropped() uint64 {
	if t == nil || t.head <= uint64(len(t.ring)) {
		return 0
	}
	return t.head - uint64(len(t.ring))
}

// Events returns the recorded events in emission order (oldest first).
// The returned slice is a copy; it is safe to keep across further
// emission.
func (t *Tracer) Events() []Event {
	if t == nil || t.head == 0 {
		return nil
	}
	n := uint64(len(t.ring))
	if t.head <= n {
		out := make([]Event, t.head)
		copy(out, t.ring[:t.head])
		return out
	}
	out := make([]Event, 0, n)
	start := t.head % n
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// Mask returns the enabled-category mask.
func (t *Tracer) Mask() Category {
	if t == nil {
		return 0
	}
	return t.mask
}
