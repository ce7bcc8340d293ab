package cache

import (
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/sim"
)

// HierConfig describes the full hierarchy. Defaults follow the paper: 32 KB
// L1, 512 KB L2, 2 MB LLC (per core).
type HierConfig struct {
	L1, L2, LLC Config
}

// DefaultHierConfig returns the paper's cache configuration with
// conventional latencies for those sizes (4 / 14 / 40 cycles).
func DefaultHierConfig() HierConfig {
	return HierConfig{
		L1:  Config{Name: "l1d", Size: 32 * mem.KiB, Ways: 8, Latency: 4},
		L2:  Config{Name: "l2", Size: 512 * mem.KiB, Ways: 8, Latency: 14},
		LLC: Config{Name: "llc", Size: 2 * mem.MiB, Ways: 16, Latency: 40},
	}
}

// MissObserver is notified when an access misses the whole hierarchy (i.e.
// goes to memory). HSCC hooks this to count per-page LLC misses.
type MissObserver func(pa mem.PhysAddr, write bool)

// Hierarchy is the three-level cache stack in front of the memory
// controller.
type Hierarchy struct {
	l1, l2, llc *Level
	ctrl        *mem.Controller
	clock       *sim.Clock
	stats       *sim.Stats

	// onMiss, when non-nil, observes LLC misses.
	onMiss MissObserver

	tr *obs.Tracer // nil when tracing is off

	// Hit-latency distributions per level (the recorded latency is the
	// cumulative probe time down to the hitting level) and the full-miss
	// latency including the memory access.
	l1HitLat  *sim.Histogram
	l2HitLat  *sim.Histogram
	llcHitLat *sim.Histogram
	missLat   *sim.Histogram

	// Per-level hit/miss and write-back counters, resolved once.
	l1Hit, l1Miss   *sim.Counter
	l2Hit, l2Miss   *sim.Counter
	llcHit, llcMiss *sim.Counter
	writebacks      *sim.Counter
	writebacksNVM   *sim.Counter
	clwbClean       *sim.Counter
	clwbDirty       *sim.Counter
	clflushes       *sim.Counter
}

// NewHierarchy builds the cache stack over the memory controller.
func NewHierarchy(cfg HierConfig, ctrl *mem.Controller, clock *sim.Clock, stats *sim.Stats) *Hierarchy {
	return &Hierarchy{
		l1:        NewLevel(cfg.L1, stats),
		l2:        NewLevel(cfg.L2, stats),
		llc:       NewLevel(cfg.LLC, stats),
		ctrl:      ctrl,
		clock:     clock,
		stats:     stats,
		l1HitLat:  stats.Hist("cache.l1.hit_lat"),
		l2HitLat:  stats.Hist("cache.l2.hit_lat"),
		llcHitLat: stats.Hist("cache.llc.hit_lat"),
		missLat:   stats.Hist("cache.miss_lat"),

		l1Hit: stats.Counter("cache.l1.hit"), l1Miss: stats.Counter("cache.l1.miss"),
		l2Hit: stats.Counter("cache.l2.hit"), l2Miss: stats.Counter("cache.l2.miss"),
		llcHit: stats.Counter("cache.llc.hit"), llcMiss: stats.Counter("cache.llc.miss"),
		writebacks:    stats.Counter("cache.writeback"),
		writebacksNVM: stats.Counter("cache.writeback_nvm"),
		clwbClean:     stats.Counter("cache.clwb_clean"),
		clwbDirty:     stats.Counter("cache.clwb_dirty"),
		clflushes:     stats.Counter("cache.clflush"),
	}
}

// SetMissObserver installs the LLC-miss hook (nil to remove).
func (h *Hierarchy) SetMissObserver(fn MissObserver) { h.onMiss = fn }

// SetTracer installs the event tracer (nil disables).
func (h *Hierarchy) SetTracer(tr *obs.Tracer) { h.tr = tr }

// Access performs a timed access to the line containing pa. It returns the
// total latency, which the caller adds to the clock. Multi-line requests
// must be split by the caller (the CPU does).
//
// Miss handling is write-allocate: the line is filled into every level.
// Dirty victims are written back to memory; dirty NVM victims become
// durable (persist-domain commit), matching real CPUs where an evicted line
// reaches the ADR/memory controller domain.
func (h *Hierarchy) Access(pa mem.PhysAddr, write bool) sim.Cycles {
	addr := mem.LineBase(pa)
	lat := h.l1.latency
	if h.l1.access(addr, write) {
		h.l1Hit.Inc()
		h.l1HitLat.ObserveCycles(lat)
		return lat
	}
	h.l1Miss.Inc()
	lat += h.l2.latency
	if h.l2.access(addr, write) {
		h.l2Hit.Inc()
		h.l2HitLat.ObserveCycles(lat)
		h.fillInto(h.l1, addr, write)
		return lat
	}
	h.l2Miss.Inc()
	lat += h.llc.latency
	if h.llc.access(addr, write) {
		h.llcHit.Inc()
		h.llcHitLat.ObserveCycles(lat)
		h.fillInto(h.l2, addr, false)
		h.fillInto(h.l1, addr, write)
		return lat
	}
	h.llcMiss.Inc()
	if h.onMiss != nil {
		h.onMiss(addr, write)
	}
	start := h.clock.Now()
	// Memory access. Write-allocate: a store still fetches the line.
	lat += h.ctrl.AccessLine(addr, false)
	h.missLat.ObserveCycles(lat)
	if h.tr.Enabled(obs.CatCache) {
		h.tr.Span(obs.CatCache, "llc.miss", start, lat, "pa", uint64(addr))
	}
	h.fillInto(h.llc, addr, false)
	h.fillInto(h.l2, addr, false)
	h.fillInto(h.l1, addr, write)
	return lat
}

// fillInto inserts addr into level l, handling victim write-back.
func (h *Hierarchy) fillInto(l *Level, addr mem.PhysAddr, dirty bool) {
	victim, victimDirty, evicted := l.fill(addr, dirty)
	if !evicted {
		return
	}
	l.evicts.Inc()
	if !victimDirty {
		return
	}
	// Dirty victim propagates down. From L1/L2 it merges into the next
	// level if resident there; from the LLC it goes to memory.
	switch l {
	case h.l1:
		if present, _ := h.l2.cleanToDirty(victim); present {
			return
		}
		if present, _ := h.llc.cleanToDirty(victim); present {
			return
		}
		h.writebackToMemory(victim)
	case h.l2:
		if present, _ := h.llc.cleanToDirty(victim); present {
			return
		}
		h.writebackToMemory(victim)
	default:
		h.writebackToMemory(victim)
	}
}

// writebackToMemory sends a dirty line to the controller. The write-back is
// asynchronous from the core's perspective (no latency charged to the
// requester), but it occupies the device and, for NVM, commits durability.
func (h *Hierarchy) writebackToMemory(addr mem.PhysAddr) {
	h.writebacks.Inc()
	h.ctrl.AccessLine(addr, true)
	if h.ctrl.Layout.KindOf(addr) == mem.NVM {
		h.ctrl.Domain().CommitLine(addr)
		h.writebacksNVM.Inc()
	}
}

// Clwb write-backs the line containing pa without invalidating it,
// returning the latency. A clean or absent line costs only the pipeline
// issue overhead. For a dirty NVM line the data becomes durable.
func (h *Hierarchy) Clwb(pa mem.PhysAddr) sim.Cycles {
	addr := mem.LineBase(pa)
	const issue = sim.Cycles(2)
	dirty := false
	if _, d := h.l1.clean(addr); d {
		dirty = true
	}
	if _, d := h.l2.clean(addr); d {
		dirty = true
	}
	if _, d := h.llc.clean(addr); d {
		dirty = true
	}
	if !dirty {
		h.clwbClean.Inc()
		return issue
	}
	h.clwbDirty.Inc()
	return issue + h.writebackTimed(addr)
}

// Flush invalidates the line everywhere (clflush), writing back if dirty.
func (h *Hierarchy) Flush(pa mem.PhysAddr) sim.Cycles {
	addr := mem.LineBase(pa)
	const issue = sim.Cycles(2)
	dirty := false
	if _, d := h.l1.invalidate(addr); d {
		dirty = true
	}
	if _, d := h.l2.invalidate(addr); d {
		dirty = true
	}
	if _, d := h.llc.invalidate(addr); d {
		dirty = true
	}
	h.clflushes.Inc()
	if !dirty {
		return issue
	}
	return issue + h.writebackTimed(addr)
}

// writebackTimed performs a write-back whose latency the requester waits
// for (clwb/clflush semantics under a following fence).
func (h *Hierarchy) writebackTimed(addr mem.PhysAddr) sim.Cycles {
	lat := h.ctrl.AccessLine(addr, true)
	if h.ctrl.Layout.KindOf(addr) == mem.NVM {
		h.ctrl.Domain().CommitLine(addr)
	}
	return lat
}

// InvalidateLine drops the line without write-back (used on crash reset and
// by page-copy flows that flushed already).
func (h *Hierarchy) InvalidateLine(pa mem.PhysAddr) {
	addr := mem.LineBase(pa)
	h.l1.invalidate(addr)
	h.l2.invalidate(addr)
	h.llc.invalidate(addr)
}

// Resident reports whether the line containing pa is in any level.
func (h *Hierarchy) Resident(pa mem.PhysAddr) bool {
	addr := mem.LineBase(pa)
	return h.l1.Probe(addr) || h.l2.Probe(addr) || h.llc.Probe(addr)
}

// Reset empties all levels (machine crash / reboot: caches are volatile).
func (h *Hierarchy) Reset() {
	h.l1.reset()
	h.l2.reset()
	h.llc.reset()
}

// Release hands the three tag stores to the next hierarchy built with the
// same level sizes. The hierarchy must not be used again: every access to
// it panics. A capture taken earlier holds copies and stays valid.
func (h *Hierarchy) Release() {
	h.l1.release()
	h.l2.release()
	h.llc.release()
}
