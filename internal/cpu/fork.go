package cpu

import (
	"sort"

	"kindle/internal/pt"
)

// Snapshot mirror of the core's architectural state, for machine forks.

// MSRState is one model-specific register value.
type MSRState struct {
	Index uint32
	Value uint64
}

// CoreState mirrors the core's mutable architectural state.
type CoreState struct {
	Regs        Registers
	MSRs        []MSRState // index-sorted
	KernelDepth int
}

// CaptureState copies the core's architectural state.
func (c *Core) CaptureState() CoreState {
	st := CoreState{Regs: c.Regs, KernelDepth: c.kernelDepth}
	st.MSRs = make([]MSRState, 0, len(c.msrs))
	for n, v := range c.msrs {
		st.MSRs = append(st.MSRs, MSRState{Index: n, Value: v})
	}
	sort.Slice(st.MSRs, func(i, j int) bool { return st.MSRs[i].Index < st.MSRs[j].Index })
	return st
}

// RestoreState overwrites the core's architectural state.
func (c *Core) RestoreState(st CoreState) {
	c.Regs = st.Regs
	c.msrs = make(map[uint32]uint64, len(st.MSRs))
	for _, m := range st.MSRs {
		c.msrs[m.Index] = m.Value
	}
	c.kernelDepth = st.KernelDepth
	c.llcMissed = false
}

// RestoreAddressSpace points the PTBR at table without the TLB flush and
// ptbr_write count a live SetAddressSpace performs: on a fork the restored
// TLB contents already describe this address space, and the switch-cost
// stats were captured with the rest of the registry.
func (c *Core) RestoreAddressSpace(t *pt.Table) { c.table = t }
