// Package mem models the physical memory system of a Kindle machine: the
// hybrid DRAM+NVM address layout (with an e820-style BIOS map), a lazily
// allocated functional backing store, device timing models for DDR4 DRAM and
// PCM NVM (including the NVM controller's read/write buffers), a persist
// domain implementing crash semantics for NVM, and the memory controller
// that routes accesses.
package mem

import "fmt"

// PhysAddr is a physical byte address.
type PhysAddr uint64

// Kind identifies which memory technology backs an address.
type Kind uint8

const (
	// DRAM is volatile DDR4 memory.
	DRAM Kind = iota
	// NVM is persistent PCM memory.
	NVM
	// Hole marks unmapped physical space.
	Hole
)

func (k Kind) String() string {
	switch k {
	case DRAM:
		return "DRAM"
	case NVM:
		return "NVM"
	default:
		return "hole"
	}
}

// Size constants.
const (
	KiB = 1 << 10
	MiB = 1 << 20
	GiB = 1 << 30

	// PageSize is the 4 KiB base page used throughout.
	PageSize = 4 * KiB
	// LineSize is the 64-byte cache line.
	LineSize = 64
	// LinesPerPage is how many cache lines a page holds (64 — one bit per
	// line fits a uint64 bitmap, which SSP exploits).
	LinesPerPage = PageSize / LineSize
)

// Layout partitions the flat physical address space between DRAM and NVM,
// mirroring the e820 entries Kindle inserts into the gem5 BIOS map.
// Paper configuration (Table I): 3 GB DRAM + 2 GB NVM.
type Layout struct {
	DRAMBase PhysAddr
	DRAMSize uint64
	NVMBase  PhysAddr
	NVMSize  uint64
}

// DefaultLayout returns the paper's Table I memory capacity: DRAM at
// [0, 3 GiB) and NVM at [3 GiB, 5 GiB).
func DefaultLayout() Layout {
	return Layout{DRAMBase: 0, DRAMSize: 3 * GiB, NVMBase: 3 * GiB, NVMSize: 2 * GiB}
}

// SmallLayout is a reduced map for unit tests: 64 MiB DRAM + 64 MiB NVM.
func SmallLayout() Layout {
	return Layout{DRAMBase: 0, DRAMSize: 64 * MiB, NVMBase: 64 * MiB, NVMSize: 64 * MiB}
}

// KindOf classifies a physical address.
func (l Layout) KindOf(pa PhysAddr) Kind {
	switch {
	case pa >= l.DRAMBase && pa < l.DRAMBase+PhysAddr(l.DRAMSize):
		return DRAM
	case pa >= l.NVMBase && pa < l.NVMBase+PhysAddr(l.NVMSize):
		return NVM
	default:
		return Hole
	}
}

// Contains reports whether [pa, pa+size) lies fully inside one region.
func (l Layout) Contains(pa PhysAddr, size uint64) bool {
	k := l.KindOf(pa)
	if k == Hole || size == 0 {
		return false
	}
	return l.KindOf(pa+PhysAddr(size-1)) == k
}

// HoldsFrame reports whether frame pfn lies inside the DRAM or the NVM
// region. It compares frame numbers, not addresses: the base address of a
// frame number of 2^52 or more wraps around to a low address.
func (l Layout) HoldsFrame(pfn uint64) bool {
	d, n := FrameNumber(l.DRAMBase), FrameNumber(l.NVMBase)
	return pfn >= d && pfn-d < l.DRAMSize/PageSize || pfn >= n && pfn-n < l.NVMSize/PageSize
}

// Total returns the total installed bytes.
func (l Layout) Total() uint64 { return l.DRAMSize + l.NVMSize }

// Region is one e820 map entry.
type Region struct {
	Base PhysAddr
	Size uint64
	Kind Kind
}

func (r Region) String() string {
	return fmt.Sprintf("e820: [%#012x-%#012x] %s", r.Base, uint64(r.Base)+r.Size-1, r.Kind)
}

// E820 returns the BIOS memory map entries Kindle would install: one usable
// DRAM region and one NVM region, in address order.
func (l Layout) E820() []Region {
	regions := []Region{
		{Base: l.DRAMBase, Size: l.DRAMSize, Kind: DRAM},
		{Base: l.NVMBase, Size: l.NVMSize, Kind: NVM},
	}
	if regions[0].Base > regions[1].Base {
		regions[0], regions[1] = regions[1], regions[0]
	}
	return regions
}

// FrameNumber returns the 4 KiB frame index of pa.
func FrameNumber(pa PhysAddr) uint64 { return uint64(pa) / PageSize }

// FrameBase returns the base address of frame pfn.
func FrameBase(pfn uint64) PhysAddr { return PhysAddr(pfn * PageSize) }

// LineBase aligns pa down to its cache line.
func LineBase(pa PhysAddr) PhysAddr { return pa &^ (LineSize - 1) }

// PageBase aligns pa down to its page.
func PageBase(pa PhysAddr) PhysAddr { return pa &^ (PageSize - 1) }
