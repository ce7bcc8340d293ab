// Package cpu models the execution core of a Kindle machine: the register
// file that process persistence checkpoints, model-specific registers
// (MSRs) used by the SSP prototype to communicate NVM ranges and metadata
// bases to hardware, and the virtual-memory access path
// (TLB → page-table walk → cache hierarchy → memory).
package cpu

import (
	"fmt"

	"kindle/internal/cache"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/pt"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// Registers is the architectural register file saved and restored by
// context switches and persistence checkpoints.
type Registers struct {
	GPR    [16]uint64 // rax..r15
	RIP    uint64
	RFLAGS uint64
}

// Common GPR indices (System V order).
const (
	RAX = iota
	RBX
	RCX
	RDX
	RSI
	RDI
	RBP
	RSP
)

// MSR numbers defined by the Kindle prototypes. The SSP hardware extension
// reads the NVM virtual range and the SSP-cache base from these, exactly as
// the paper describes ("we use Model Specific Registers to communicate the
// virtual address range corresponding to NVM allocation to hardware").
const (
	MSRSSPRangeBase uint32 = 0xC000_0100
	MSRSSPRangeEnd  uint32 = 0xC000_0101
	MSRSSPCacheBase uint32 = 0xC000_0102
	MSRSSPEnable    uint32 = 0xC000_0103
)

// PageFaultError describes a translation failure the OS refused to fix.
type PageFaultError struct {
	VA    uint64
	Write bool
	Cause string
}

func (e *PageFaultError) Error() string {
	op := "read"
	if e.Write {
		op = "write"
	}
	return fmt.Sprintf("cpu: page fault on %s of %#x: %s", op, e.VA, e.Cause)
}

// FaultHandler is the OS upcall invoked on a page fault. On success it must
// have installed a mapping for va (the core retries the walk) and returns
// the kernel latency consumed. On failure it returns an error; the core
// surfaces it (the process would be killed).
type FaultHandler interface {
	HandlePageFault(va uint64, write bool) (sim.Cycles, error)
}

// Hooks observe the access path. Prototypes install them: SSP marks updated
// bitmaps on NVM stores, HSCC counts LLC misses per page.
type Hooks interface {
	// OnTranslate runs after a successful translation, before the cache
	// access. The entry is mutable.
	OnTranslate(e *tlb.Entry, va uint64, write bool)
	// OnLLCMiss runs when the access misses the last-level cache.
	OnLLCMiss(e *tlb.Entry, va uint64, write bool)
}

// Core is a single simulated CPU.
type Core struct {
	clock *sim.Clock
	stats *sim.Stats

	Regs Registers
	msrs map[uint32]uint64

	TLB  *tlb.TLB
	Hier *cache.Hierarchy
	ctrl *mem.Controller

	table *pt.Table // current address space
	fault FaultHandler
	hooks Hooks

	// kernelDepth attributes access time to OS work (stats only); a
	// nesting depth rather than a flag so kernel paths that call other
	// kernel paths (a syscall triggering a checkpoint, recovery adopting
	// processes) keep correct attribution.
	kernelDepth int

	llcMissed bool // scratch flag set by the hierarchy miss observer

	tr *obs.Tracer // nil when tracing is off

	tlbLookupLat *sim.Histogram
	ptwalkLat    *sim.Histogram

	kernelCycles  *sim.Counter
	userCycles    *sim.Counter
	loads         *sim.Counter
	stores        *sim.Counter
	fences        *sim.Counter
	ptbrWrites    *sim.Counter
	llcMissKernel *sim.Counter
	llcMissUser   *sim.Counter
}

// New builds a core bound to the given translation and memory structures.
func New(clock *sim.Clock, stats *sim.Stats, t *tlb.TLB, h *cache.Hierarchy, ctrl *mem.Controller) *Core {
	c := &Core{
		clock:        clock,
		stats:        stats,
		msrs:         make(map[uint32]uint64),
		TLB:          t,
		Hier:         h,
		ctrl:         ctrl,
		tlbLookupLat: stats.Hist("tlb.lookup_lat"),
		ptwalkLat:    stats.Hist("cpu.ptwalk_lat"),

		kernelCycles:  stats.Counter("cpu.kernel_cycles"),
		userCycles:    stats.Counter("cpu.user_cycles"),
		loads:         stats.Counter("cpu.load"),
		stores:        stats.Counter("cpu.store"),
		fences:        stats.Counter("cpu.fence"),
		ptbrWrites:    stats.Counter("cpu.ptbr_write"),
		llcMissKernel: stats.Counter("cache.llc_miss_kernel"),
		llcMissUser:   stats.Counter("cache.llc_miss_user"),
	}
	h.SetMissObserver(func(pa mem.PhysAddr, write bool) {
		c.llcMissed = true
		// Attribute the miss to the privilege mode, so experiments can
		// quantify cache pollution caused by OS activities (migrations,
		// checkpoints) separately from application misses.
		if c.kernelDepth > 0 {
			c.llcMissKernel.Inc()
		} else {
			c.llcMissUser.Inc()
		}
	})
	return c
}

// SetFaultHandler installs the OS page-fault upcall.
func (c *Core) SetFaultHandler(h FaultHandler) { c.fault = h }

// SetTracer installs the event tracer (nil disables).
func (c *Core) SetTracer(tr *obs.Tracer) { c.tr = tr }

// SetHooks installs prototype observation hooks (nil clears).
func (c *Core) SetHooks(h Hooks) { c.hooks = h }

// SetAddressSpace points the core's PTBR at table and flushes the TLB
// (firing eviction hooks, as a real context switch would let the prototype
// hardware write back metadata first).
func (c *Core) SetAddressSpace(t *pt.Table) {
	if c.table == t {
		return
	}
	c.table = t
	c.TLB.InvalidateAll()
	c.ptbrWrites.Inc()
}

// AddressSpace returns the current table (nil before the first switch).
func (c *Core) AddressSpace() *pt.Table { return c.table }

// EnterKernel / ExitKernel bracket OS work for time attribution; calls
// nest.
func (c *Core) EnterKernel() { c.kernelDepth++ }
func (c *Core) ExitKernel() {
	if c.kernelDepth > 0 {
		c.kernelDepth--
	}
}

// InKernel reports the current mode.
func (c *Core) InKernel() bool { return c.kernelDepth > 0 }

// ReadMSR returns the MSR value (zero when never written).
func (c *Core) ReadMSR(n uint32) uint64 { return c.msrs[n] }

// WriteMSR sets an MSR.
func (c *Core) WriteMSR(n uint32, v uint64) { c.msrs[n] = v }

// charge advances the clock and attributes the time.
func (c *Core) charge(lat sim.Cycles) {
	c.clock.Advance(lat)
	if c.kernelDepth > 0 {
		c.kernelCycles.Add(uint64(lat))
	} else {
		c.userCycles.Add(uint64(lat))
	}
}

// translate resolves va to a TLB entry, walking and fault-handling as
// needed. The returned entry is live TLB state.
func (c *Core) translate(va uint64, write bool) (*tlb.Entry, error) {
	vpn := va / mem.PageSize
	for attempt := 0; attempt < 3; attempt++ {
		e, lat := c.TLB.Lookup(vpn)
		c.charge(lat)
		c.tlbLookupLat.ObserveCycles(lat)
		if e != nil {
			return e, nil
		}
		if c.tr.Enabled(obs.CatTLB) {
			c.tr.Instant(obs.CatTLB, "tlb.miss", "va", va)
		}
		if c.table == nil {
			return nil, &PageFaultError{VA: va, Write: write, Cause: "no address space"}
		}
		walkStart := c.clock.Now()
		leaf, wlat, ok := c.table.Walk(va)
		c.charge(wlat)
		c.ptwalkLat.ObserveCycles(wlat)
		if c.tr.Enabled(obs.CatPTWalk) {
			// The walk itself advances the clock inside Walk (timed memory
			// reads), so the span covers walkStart..Now rather than wlat.
			c.tr.Span(obs.CatPTWalk, "ptwalk", walkStart, c.clock.Now()-walkStart, "va", va)
		}
		if ok {
			// Complete the translation from the walk result, as the
			// hardware fill path does: a fresh Lookup would charge an L1
			// probe the real machine never issues.
			return c.TLB.Insert(tlb.Entry{
				VPN:      vpn,
				PFN:      leaf.PFN(),
				Writable: leaf.Writable(),
				NVM:      leaf.NVM(),
			}), nil
		}
		if c.fault == nil {
			return nil, &PageFaultError{VA: va, Write: write, Cause: "no fault handler"}
		}
		flat, err := c.fault.HandlePageFault(va, write)
		// Fault handler runs in kernel mode; its own memory operations
		// already advanced the clock. flat covers fixed entry/exit cost.
		c.kernelCycles.Add(uint64(flat))
		c.clock.Advance(flat)
		if err != nil {
			return nil, err
		}
	}
	return nil, &PageFaultError{VA: va, Write: write, Cause: "translation did not converge"}
}

// Access performs a timed user/kernel data access of size bytes at va,
// splitting across cache lines and pages as needed. It returns the total
// latency (the clock has already advanced).
func (c *Core) Access(va uint64, write bool, size int) (sim.Cycles, error) {
	if size <= 0 {
		return 0, fmt.Errorf("cpu: access size %d", size)
	}
	start := c.clock.Now()
	last := va + uint64(size) - 1 // the access's last byte
	for cur := va; ; {
		e, err := c.translate(cur, write)
		if err != nil {
			return c.clock.Now() - start, err
		}
		if write && !e.Writable {
			return c.clock.Now() - start, &PageFaultError{VA: cur, Write: true, Cause: "write to read-only page"}
		}
		if c.hooks != nil {
			c.hooks.OnTranslate(e, cur, write)
		}
		// Access the lines this request covers within the current page; a
		// single-line access makes one pass of each loop. The first line
		// starts at cur itself: Hierarchy.Access aligns pa to its line.
		pageLast := min(last, cur|(mem.PageSize-1))
		frame := mem.FrameBase(e.PFN)
		for line := cur; ; line += mem.LineSize {
			c.llcMissed = false
			c.charge(c.Hier.Access(frame+mem.PhysAddr(line%mem.PageSize), write))
			if c.llcMissed && c.hooks != nil {
				c.hooks.OnLLCMiss(e, cur, write)
			}
			if line|(mem.LineSize-1) >= pageLast {
				break
			}
		}
		if pageLast == last {
			break
		}
		cur = pageLast + 1
	}
	if write {
		c.stores.Inc()
	} else {
		c.loads.Inc()
	}
	return c.clock.Now() - start, nil
}

// PhysAccess performs a timed access by physical address (kernel paths that
// bypass translation: page copies, metadata updates).
func (c *Core) PhysAccess(pa mem.PhysAddr, write bool) sim.Cycles {
	lat := c.Hier.Access(pa, write)
	c.charge(lat)
	return lat
}

// Clwb issues a cache-line write-back for the line holding physical
// address pa, advancing the clock.
func (c *Core) Clwb(pa mem.PhysAddr) sim.Cycles {
	lat := c.Hier.Clwb(pa)
	c.charge(lat)
	return lat
}

// Fence drains the NVM write buffer (sfence + ADR semantics): the caller
// observes all previously issued NVM writes as durable once it returns.
func (c *Core) Fence() sim.Cycles {
	lat := c.ctrl.NVM().DrainLatency()
	c.charge(lat)
	c.fences.Inc()
	return lat
}

// VirtToPhys translates functionally (no timing, no TLB effects); returns
// ok=false when unmapped. Diagnostic and recovery use.
func (c *Core) VirtToPhys(va uint64) (mem.PhysAddr, bool) {
	if c.table == nil {
		return 0, false
	}
	e, ok := c.table.Lookup(va)
	if !ok {
		return 0, false
	}
	return mem.FrameBase(e.PFN()) + mem.PhysAddr(va%mem.PageSize), true
}

// Reset models the core losing volatile state at power failure.
func (c *Core) Reset() {
	c.Regs = Registers{}
	c.msrs = make(map[uint32]uint64)
	c.TLB.Reset()
	c.table = nil
	c.kernelDepth = 0
}
