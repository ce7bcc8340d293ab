package mem

import (
	"strings"
	"testing"

	"kindle/internal/sim"
)

// TestRestoreStateRejectsBadPending: pending lines come from snapshot
// files, so RestoreState must refuse a line that is not line-aligned, lies
// outside the NVM region or appears twice, and must not keep any pending
// line from a refused state.
func TestRestoreStateRejectsBadPending(t *testing.T) {
	l := SmallLayout()
	nvm := uint64(l.NVMBase)
	nvmEnd := nvm + l.NVMSize
	line := func(pa uint64, fill byte) PendingLineState {
		st := PendingLineState{Line: pa}
		for i := range st.Data {
			st.Data[i] = fill
		}
		return st
	}
	cases := []struct {
		name    string
		pending []PendingLineState
		wantErr string
	}{
		{"valid", []PendingLineState{line(nvm, 1), line(nvm+LineSize, 2), line(nvmEnd-LineSize, 3)}, ""},
		{"unaligned", []PendingLineState{line(nvm+8, 1)}, "not line-aligned"},
		{"dram", []PendingLineState{line(nvm-LineSize, 1)}, "outside the NVM region"},
		{"past end", []PendingLineState{line(nvmEnd, 1)}, "outside the NVM region"},
		{"far past end", []PendingLineState{line(1<<62, 1)}, "outside the NVM region"},
		{"duplicate", []PendingLineState{line(nvm, 1), line(nvm, 2)}, "appears twice"},
		{"duplicate apart", []PendingLineState{line(nvm, 1), line(nvm+PageSize, 2), line(nvm, 3)}, "appears twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			c := NewController(l, DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
			st := c.CaptureState()
			st.Pending = tc.pending
			err := c.RestoreState(st, c.Backing().Fork())
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("RestoreState: %v", err)
				}
				if got := c.Domain().PendingLines(); got != len(tc.pending) {
					t.Fatalf("%d pending lines restored, want %d", got, len(tc.pending))
				}
				for _, p := range tc.pending {
					var b [1]byte
					c.Read(PhysAddr(p.Line), b[:])
					if b[0] != p.Data[0] {
						t.Fatalf("line %#x reads %d, want %d", p.Line, b[0], p.Data[0])
					}
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("RestoreState error %v, want one containing %q", err, tc.wantErr)
			}
			if got := c.Domain().PendingLines(); got != 0 {
				t.Fatalf("refused state left %d pending lines", got)
			}
		})
	}
}
