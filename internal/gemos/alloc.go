package gemos

import (
	"errors"
	"fmt"
	"math/bits"
	"slices"

	"kindle/internal/machine"
	"kindle/internal/mem"
)

// ErrOutOfMemory is returned when a pool is exhausted.
var ErrOutOfMemory = errors.New("gemos: out of physical frames")

// FrameAllocator manages the DRAM and NVM physical frame pools.
//
// Following the paper ("we also modify the physical page allocation
// mechanism in gemOS to persist the page allocation meta-data to ensure
// correctness after crash and reboot"), NVM allocations are recorded in a
// persistent bitmap that itself lives in NVM: every NVM alloc/free performs
// a timed read-modify-write of the bitmap word plus a clwb, so the metadata
// is durable and the allocator can be reconstructed after a crash.
type FrameAllocator struct {
	m      *machine.Machine
	layout mem.Layout

	dramNext, dramMax uint64
	dramFree          []uint64
	dramUsed          frameBits // double-alloc/free guard (volatile)

	nvmNext, nvmMax uint64
	nvmFree         []uint64
	nvmPoolStart    uint64    // first pool pfn (after the reserved meta region)
	nvmUsed         frameBits // volatile mirror of the persisted bitmap

	bitmapBase mem.PhysAddr // persisted NVM allocation bitmap

	// Deferred reclamation: while enabled (process persistence attached),
	// NVM frees do not clear the persisted bitmap or return the frame to
	// the pool until FlushDeferredFrees — otherwise a crash between a
	// munmap and the next checkpoint would leave the checkpoint-consistent
	// saved state referencing frames the allocator considers free (or,
	// worse, already reused).
	deferNVM bool
	deferred []uint64
}

// frameBits marks the allocated frames of one pool: bit i of words is the
// pool's first frame (base) plus i. It grows one word at a time as
// frames are marked, so it never reaches past the pool's bump cursor.
type frameBits struct {
	base  uint64
	words []uint64
}

// has reports whether pfn is marked; frames outside the bitset are not.
func (b *frameBits) has(pfn uint64) bool {
	i := pfn - b.base // wraps past len(words) for pfn < base
	w := i / 64
	return w < uint64(len(b.words)) && b.words[w]&(1<<(i%64)) != 0
}

func (b *frameBits) set(pfn uint64) {
	i := pfn - b.base
	for uint64(len(b.words)) <= i/64 {
		b.words = append(b.words, 0)
	}
	b.words[i/64] |= 1 << (i % 64)
}

// clear unmarks pfn, which the caller knows is marked.
func (b *frameBits) clear(pfn uint64) {
	i := pfn - b.base
	b.words[i/64] &^= 1 << (i % 64)
}

// count returns how many frames are marked.
func (b *frameBits) count() int {
	n := 0
	for _, w := range b.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// appendSet appends every marked frame to dst in ascending order.
func (b *frameBits) appendSet(dst []uint64) []uint64 {
	for wi, w := range b.words {
		for ; w != 0; w &= w - 1 {
			dst = append(dst, b.base+uint64(wi)*64+uint64(bits.TrailingZeros64(w)))
		}
	}
	return dst
}

// NewFrameAllocator builds the allocator. reservedNVM bytes at the start of
// the NVM region are carved out for persistence structures (boot record,
// this bitmap, saved states, logs) and never handed to the pool.
// bitmapBase must point inside that reserved region.
func NewFrameAllocator(m *machine.Machine, layout mem.Layout, reservedNVM uint64, bitmapBase mem.PhysAddr) *FrameAllocator {
	poolStart := mem.FrameNumber(layout.NVMBase + mem.PhysAddr(reservedNVM))
	dramStart := mem.FrameNumber(layout.DRAMBase)
	return &FrameAllocator{
		m:            m,
		layout:       layout,
		dramNext:     dramStart,
		dramMax:      mem.FrameNumber(layout.DRAMBase + mem.PhysAddr(layout.DRAMSize)),
		dramUsed:     frameBits{base: dramStart},
		nvmNext:      poolStart,
		nvmMax:       mem.FrameNumber(layout.NVMBase + mem.PhysAddr(layout.NVMSize)),
		nvmPoolStart: poolStart,
		nvmUsed:      frameBits{base: poolStart},
		bitmapBase:   bitmapBase,
	}
}

// bitmapWord returns the address of the bitmap uint64 covering pool pfn and
// the bit index within it.
func (a *FrameAllocator) bitmapWord(pfn uint64) (mem.PhysAddr, uint) {
	idx := pfn - a.nvmPoolStart
	return a.bitmapBase + mem.PhysAddr((idx/64)*8), uint(idx % 64)
}

// markNVM persists the allocation state of pfn: timed RMW + clwb + commit.
func (a *FrameAllocator) markNVM(pfn uint64, used bool) {
	wa, bit := a.bitmapWord(pfn)
	a.m.AccessTimed(wa, false)
	w := a.m.LoadU64(wa)
	if used {
		w |= 1 << bit
	} else {
		w &^= 1 << bit
	}
	a.m.AccessTimed(wa, true)
	a.m.StoreU64(wa, w)
	a.m.Core.Clwb(wa)
}

// AllocFrame satisfies pt.FrameAllocator.
func (a *FrameAllocator) AllocFrame(kind mem.Kind) (uint64, error) {
	var pfn uint64
	var used *frameBits
	switch kind {
	case mem.DRAM:
		if n := len(a.dramFree); n > 0 {
			pfn = a.dramFree[n-1]
			a.dramFree = a.dramFree[:n-1]
		} else if a.dramNext < a.dramMax {
			pfn = a.dramNext
			a.dramNext++
		} else {
			return 0, fmt.Errorf("%w (DRAM)", ErrOutOfMemory)
		}
		used = &a.dramUsed
	case mem.NVM:
		if n := len(a.nvmFree); n > 0 {
			pfn = a.nvmFree[n-1]
			a.nvmFree = a.nvmFree[:n-1]
		} else if a.nvmNext < a.nvmMax {
			pfn = a.nvmNext
			a.nvmNext++
		} else {
			return 0, fmt.Errorf("%w (NVM)", ErrOutOfMemory)
		}
		a.markNVM(pfn, true)
		used = &a.nvmUsed
	default:
		return 0, fmt.Errorf("gemos: alloc of kind %v", kind)
	}
	if used.has(pfn) {
		panic(fmt.Sprintf("gemos: frame %#x double-allocated", pfn))
	}
	used.set(pfn)
	return pfn, nil
}

// FreeFrame satisfies pt.FrameAllocator; the kind is derived from the
// address.
func (a *FrameAllocator) FreeFrame(pfn uint64) {
	if !a.InUse(pfn) {
		panic(fmt.Sprintf("gemos: frame %#x freed but not allocated", pfn))
	}
	switch a.layout.KindOf(mem.FrameBase(pfn)) {
	case mem.DRAM:
		a.dramUsed.clear(pfn)
		a.dramFree = append(a.dramFree, pfn)
	case mem.NVM:
		if a.deferNVM {
			// Keep the frame reserved (and the bitmap bit set) until the
			// next checkpoint commits; see FlushDeferredFrees.
			a.deferred = append(a.deferred, pfn)
			return
		}
		a.nvmUsed.clear(pfn)
		a.markNVM(pfn, false)
		a.nvmFree = append(a.nvmFree, pfn)
	default:
		panic(fmt.Sprintf("gemos: free of unmapped frame %#x", pfn))
	}
}

// SetDeferNVMFrees toggles deferred NVM reclamation (enabled by the
// persistence manager).
func (a *FrameAllocator) SetDeferNVMFrees(on bool) { a.deferNVM = on }

// FlushDeferredFrees makes all deferred NVM frees effective: the persisted
// bitmap bits clear and the frames return to the pool. The persistence
// manager calls this after a checkpoint's consistent-copy flip commits, so
// the durable allocator metadata never runs ahead of the durable process
// metadata.
func (a *FrameAllocator) FlushDeferredFrees() int {
	n := len(a.deferred)
	for _, pfn := range a.deferred {
		a.nvmUsed.clear(pfn)
		a.markNVM(pfn, false)
		a.nvmFree = append(a.nvmFree, pfn)
	}
	a.deferred = a.deferred[:0]
	return n
}

// DeferredFrees reports pending deferred frees (tests).
func (a *FrameAllocator) DeferredFrees() int { return len(a.deferred) }

// ReclaimUnreferenced sweeps the NVM pool after recovery: every frame the
// persisted bitmap marks used but that no recovered structure references
// is returned to the pool, in ascending frame order. This garbage-collects
// frames that were allocated after the last checkpoint — durable in the
// bitmap but unknown to any consistent saved state. referenced may hold
// duplicates and frames of either pool; it is sorted in place.
func (a *FrameAllocator) ReclaimUnreferenced(referenced []uint64) int {
	slices.Sort(referenced)
	n := 0
	for wi, w := range a.nvmUsed.words {
		for ; w != 0; w &= w - 1 {
			pfn := a.nvmUsed.base + uint64(wi)*64 + uint64(bits.TrailingZeros64(w))
			i, found := slices.BinarySearch(referenced, pfn)
			referenced = referenced[i:]
			if found {
				continue
			}
			a.nvmUsed.clear(pfn)
			a.markNVM(pfn, false)
			a.nvmFree = append(a.nvmFree, pfn)
			n++
		}
	}
	return n
}

// InUse reports whether pfn is currently allocated (volatile view).
func (a *FrameAllocator) InUse(pfn uint64) bool {
	return a.dramUsed.has(pfn) || a.nvmUsed.has(pfn)
}

// FreeDRAM / FreeNVM report remaining capacity in frames.
func (a *FrameAllocator) FreeDRAM() uint64 {
	return a.dramMax - a.dramNext + uint64(len(a.dramFree))
}
func (a *FrameAllocator) FreeNVM() uint64 {
	return a.nvmMax - a.nvmNext + uint64(len(a.nvmFree))
}

// RecoverFromBitmap rebuilds the NVM allocator state from the persisted
// bitmap after a crash: frames with a set bit stay allocated (their data is
// owned by recovered processes), clear frames return to the pool. DRAM
// state is volatile; the DRAM pool restarts empty. The cost of scanning the
// bitmap is charged as timed reads (one per word). The persisted bitmap
// and the volatile NVM bitset share a layout, so each persisted word is
// the bitset word.
func (a *FrameAllocator) RecoverFromBitmap() {
	a.dramUsed.words = a.dramUsed.words[:0]
	a.dramFree = nil
	a.dramNext = a.dramUsed.base
	a.nvmUsed.words = a.nvmUsed.words[:0]
	a.nvmFree = nil

	poolFrames := a.nvmMax - a.nvmPoolStart
	// Resume bump allocation above the highest used frame; holes below it
	// go to the free list.
	a.nvmNext = a.nvmPoolStart
	for w := uint64(0); w < (poolFrames+63)/64; w++ {
		wa := a.bitmapBase + mem.PhysAddr(w*8)
		a.m.AccessTimed(wa, false)
		word := a.m.LoadU64(wa)
		if rest := poolFrames - w*64; rest < 64 {
			word &= 1<<rest - 1 // bits past the pool end
		}
		if word == 0 {
			continue
		}
		for uint64(len(a.nvmUsed.words)) < w {
			a.nvmUsed.words = append(a.nvmUsed.words, 0)
		}
		a.nvmUsed.words = append(a.nvmUsed.words, word)
		a.nvmNext = a.nvmPoolStart + w*64 + 64 - uint64(bits.LeadingZeros64(word))
	}
	for pfn := a.nvmPoolStart; pfn < a.nvmNext; pfn++ {
		if !a.nvmUsed.has(pfn) {
			a.nvmFree = append(a.nvmFree, pfn)
		}
	}
}
