package mem

import (
	"fmt"
	"reflect"
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

// TestRestoreStateRejectsBadDrain corrupts the drain FIFO of an otherwise
// valid capture. RestoreState must refuse a FIFO the write buffer could
// not have built, with an error naming the entry, and leave the controller
// as it was: a read hits the buffer only while a live entry holds its line,
// which is exact only if deadlines never decrease along the FIFO.
func TestRestoreStateRejectsBadDrain(t *testing.T) {
	l := SmallLayout()
	nvm := uint64(l.NVMBase)
	src := NewController(l, DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
	for i := uint64(0); i < 4; i++ {
		src.AccessLine(l.NVMBase+PhysAddr(i*LineSize), true)
	}
	cases := []struct {
		name    string
		corrupt func(st *NVMState)
		want    string
	}{
		{"deeper than the buffer", func(st *NVMState) {
			for len(st.Drain) <= PCM().WriteBuf {
				st.Drain = append(st.Drain, st.Drain[len(st.Drain)-1])
			}
		}, "drain FIFO holds 49 entries, the write buffer 48"},
		{"unaligned line", func(st *NVMState) { st.Drain[1].Line += 8 }, fmt.Sprintf("drain entry 1: line %#x is not line-aligned", nvm+LineSize+8)},
		{"dram line", func(st *NVMState) { st.Drain[0].Line = nvm - LineSize }, fmt.Sprintf("drain entry 0: line %#x is outside the NVM region", nvm-LineSize)},
		{"past the nvm end", func(st *NVMState) { st.Drain[3].Line = nvm + l.NVMSize }, fmt.Sprintf("drain entry 3: line %#x is outside the NVM region", nvm+l.NVMSize)},
		{"deadline decreases", func(st *NVMState) { st.Drain[2].Done = st.Drain[1].Done - 1 }, "drain entry 2: deadline"},
		{"deadline after drain free", func(st *NVMState) { st.DrainFree = st.Drain[3].Done - 1 }, "drain entry 3: deadline"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := src.CaptureState()
			c.corrupt(&st.NVM)
			dst := NewController(l, DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
			dst.AccessLine(l.NVMBase+PageSize, true)
			dst.AccessLine(l.DRAMBase+3*PageSize, false)
			dst.WriteU64(l.NVMBase+2*PageSize, 7)
			before, backing := dst.CaptureState(), dst.Backing()
			err := dst.RestoreState(st, src.Backing().Fork())
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("RestoreState error %v, want one containing %q", err, c.want)
			}
			if !reflect.DeepEqual(dst.CaptureState(), before) || dst.Backing() != backing {
				t.Fatal("refused snapshot changed the controller")
			}
		})
	}
	dst := NewController(l, DDR4_2400(), PCM(), sim.NewClock(), sim.NewStats())
	if err := dst.RestoreState(src.CaptureState(), src.Backing().Fork()); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	if !reflect.DeepEqual(dst.CaptureState(), src.CaptureState()) {
		t.Fatal("restored controller captures differently from its source")
	}
}
