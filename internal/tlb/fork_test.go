package tlb

import (
	"strings"
	"testing"

	"kindle/internal/sim"
)

// TestRestoreStateRejectsBadSets corrupts one set's occupancy or MRU hint
// in an otherwise valid capture. RestoreState must refuse it with an error
// naming the level and the set, and leave a TLB whose next lookups work;
// accepting it would slice the set out of range on the next lookup.
func TestRestoreStateRejectsBadSets(t *testing.T) {
	src := NewDefault(sim.NewStats())
	for vpn := uint64(0); vpn < 200; vpn++ {
		src.Insert(Entry{VPN: vpn, PFN: vpn + 1000})
	}
	cases := []struct {
		name    string
		corrupt func(st *State)
		want    string
	}{
		{"l2 lens above ways", func(st *State) { st.L2.Lens[len(st.L2.Lens)-1] = 13 }, "l2 set 127: 13 valid ways"},
		{"l1 lens negative", func(st *State) { st.L1.Lens[0] = -1 }, "l1 set 0: -1 valid ways"},
		{"l1 mru negative", func(st *State) { st.L1.MRU[0] = -1 }, "l1 set 0: MRU way -1"},
		{"l2 mru at ways", func(st *State) { st.L2.MRU[5] = 12 }, "l2 set 5: MRU way 12"},
		{"l1 mru hints missing", func(st *State) { st.L1.MRU = st.L1.MRU[:3] }, "l1 geometry mismatch"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := src.CaptureState()
			c.corrupt(&st)
			dst := NewDefault(sim.NewStats())
			err := dst.RestoreState(st)
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			for vpn := uint64(0); vpn < 300; vpn++ {
				dst.Lookup(vpn)
			}
		})
	}
	dst := NewDefault(sim.NewStats())
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
}
