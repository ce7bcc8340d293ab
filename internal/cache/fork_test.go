package cache

import (
	"reflect"
	"strings"
	"testing"

	"kindle/internal/mem"
)

// TestRestoreStateRejectsBadSets corrupts one level of an otherwise valid
// capture. RestoreState must refuse it with an error naming the level
// (and the set, where one is at fault) and leave a hierarchy that still
// serves accesses. The first case is the one that used to be accepted and
// then panic: a 17th way in the LLC's last 16-way set.
func TestRestoreStateRejectsBadSets(t *testing.T) {
	src, _, _, _ := newTestHier(t)
	// Four lines in L1 set 0 (ways 0-3; 4-7 stay empty), plus a dirty
	// spread through every level.
	l1Stride := mem.PhysAddr(32 * mem.KiB / 8)
	for i := mem.PhysAddr(0); i < 4; i++ {
		src.Access(i*l1Stride, false)
	}
	for i := mem.PhysAddr(0); i < 20_000; i++ {
		src.Access(i*3*mem.LineSize, i%4 == 0)
	}
	l1Set0 := func(st *HierarchyState) []uint64 { return st.L1.Lines[:8] }
	cases := []struct {
		name    string
		corrupt func(st *HierarchyState)
		want    string
	}{
		{"llc 17th way in last set", func(st *HierarchyState) {
			st.LLC.Lines = append(st.LLC.Lines, st.LLC.Lines[len(st.LLC.Lines)-1])
		}, "llc geometry mismatch: 32769 ways in snapshot, 32768"},
		{"l1 lines short", func(st *HierarchyState) { st.L1.Lines = st.L1.Lines[:100] }, "l1d geometry mismatch"},
		{"l2 stamp-based snapshot", func(st *HierarchyState) { st.L2 = LevelState{} }, "l2 geometry mismatch: 0 ways"},
		{"l1 misaligned line", func(st *HierarchyState) { l1Set0(st)[2] += 8 }, "l1d set 0: way 2 holds"},
		{"l1 line of another set", func(st *HierarchyState) { l1Set0(st)[1] += mem.LineSize }, "l1d set 0: way 1 holds"},
		{"llc line of another set", func(st *HierarchyState) { st.LLC.Lines[16*5+3] = 0 }, "llc set 5: way 3 holds 0x0, not a line base"},
		{"l1 valid way after an empty one", func(st *HierarchyState) { l1Set0(st)[0] = emptyState }, "l1d set 0: way 1 holds"},
		{"l1 cleared all-ones word", func(st *HierarchyState) { l1Set0(st)[6] = emptyState &^ dirtyBit }, "l1d set 0: way 6 holds"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := src.CaptureState()
			c.corrupt(&st)
			dst, _, _, _ := newTestHier(t)
			err := dst.RestoreState(st)
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			for i := mem.PhysAddr(0); i < 40_000; i++ {
				dst.Access(i*mem.LineSize, i%3 == 0)
			}
		})
	}
	// The valid capture itself restores, and the copy's tags then evolve
	// exactly as the source's do.
	dst, _, _, _ := newTestHier(t)
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	for i := mem.PhysAddr(0); i < 40_000; i++ {
		src.Access(i*5*mem.LineSize, i%2 == 0)
		dst.Access(i*5*mem.LineSize, i%2 == 0)
	}
	if !reflect.DeepEqual(src.CaptureState(), dst.CaptureState()) {
		t.Fatal("restored hierarchy diverged from its source")
	}
}
