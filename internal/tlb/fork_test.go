package tlb

import (
	"reflect"
	"strings"
	"testing"

	"kindle/internal/sim"
)

// TestRestoreStateRejectsBadSets corrupts one set of an otherwise valid
// capture. RestoreState must refuse it with an error naming the level and
// the set, and leave the TLB as it was. Accepting a bad occupancy or
// recency run would slice a set out of range on the next lookup; accepting
// a VPN in a set it does not map to, or resident twice, would leave a copy
// that can never hit again.
func TestRestoreStateRejectsBadSets(t *testing.T) {
	// VPNs 0..199 fill the default TLB's L1 with 136..199, four to a
	// set, and leave 0..135 in L2: two to a set in sets 0-7 (VPN 3 in set
	// 3), one in the rest.
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
		{"l1 recency missing", func(st *State) { st.L1.Recency = st.L1.Recency[:3] }, "l1 geometry mismatch"},
		{"l1 recency run ends early", func(st *State) { st.L1.Recency[1] = -1 }, "l1 set 0: recency run is not a prefix"},
		{"l2 recency past the run", func(st *State) { st.L2.Recency[9*12+3] = 0 }, "l2 set 9: recency run is not a prefix"},
		{"l2 recency slot out of range", func(st *State) { st.L2.Recency[9*12] = 1 }, "l2 set 9: recency position 0 names slot 1, outside [0, 1)"},
		{"l1 recency slot negative", func(st *State) { st.L1.Recency[2*4+1] = -2 }, "l1 set 2: recency position 1 names slot -2"},
		{"l1 recency slot repeated", func(st *State) { st.L1.Recency[1] = st.L1.Recency[0] }, "l1 set 0: recency run names slot"},
		{"l1 vpn of another set", func(st *State) { st.L1.Entries[5*4].VPN = 3 }, "l1 set 5: slot 0 holds VPN 0x3, which maps to set 3"},
		{"vpn resident twice", func(st *State) { st.L1.Entries[3*4].VPN = 3 }, "l2 set 3: VPN 0x3 is also resident in l1 set 3"},
		{"l2 vpn twice in a set", func(st *State) { st.L2.Entries[3*12+1].VPN = st.L2.Entries[3*12].VPN }, "l2 set 3: VPN 0x3 is resident twice, in slots 0 and 1"},
		{"vpn wider than a tag word", func(st *State) { st.L2.Entries[0].VPN = 1 << 60 }, "l2 set 0: slot 0 holds VPN 0x1000000000000000, wider than 52 bits"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			st := src.CaptureState()
			c.corrupt(&st)
			dst := NewDefault(sim.NewStats())
			for vpn := uint64(500); vpn < 520; vpn++ {
				dst.Insert(Entry{VPN: vpn, PFN: vpn})
			}
			before := dst.CaptureState()
			err := dst.RestoreState(st)
			if err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %q", err, c.want)
			}
			if !reflect.DeepEqual(dst.CaptureState(), before) {
				t.Fatal("refused snapshot changed the TLB")
			}
			for vpn := uint64(0); vpn < 600; vpn++ {
				dst.Lookup(vpn)
			}
		})
	}
	dst := NewDefault(sim.NewStats())
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatalf("valid snapshot refused: %v", err)
	}
	if !reflect.DeepEqual(dst.CaptureState(), src.CaptureState()) {
		t.Fatal("restored TLB captures differently from its source")
	}
}
