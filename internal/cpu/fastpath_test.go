package cpu_test

import (
	"bytes"
	"fmt"
	"testing"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/sim"
	"kindle/internal/tlb"
)

// bootPair builds two identically-configured machines, one with every
// replay fast path disabled, each with the same pair of mapped regions
// (one DRAM, one NVM). Returns the machines and the two region bases.
func bootPair(t *testing.T) (fast, slow *machine.Machine, dram, nvm uint64, pages uint64) {
	t.Helper()
	const regionPages = 64
	build := func(disable bool) (*machine.Machine, uint64, uint64) {
		cfg := machine.TestConfig()
		cfg.DisableFastPaths = disable
		m := machine.New(cfg)
		k := gemos.Boot(m)
		p, err := k.Spawn("fastpath-test")
		if err != nil {
			t.Fatal(err)
		}
		k.Switch(p)
		d, err := k.Mmap(p, 0, regionPages*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, 0)
		if err != nil {
			t.Fatal(err)
		}
		n, err := k.Mmap(p, 0, regionPages*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
		if err != nil {
			t.Fatal(err)
		}
		return m, d, n
	}
	fast, dramF, nvmF := build(false)
	slow, dramS, nvmS := build(true)
	if dramF != dramS || nvmF != nvmS {
		t.Fatalf("mmap layout differs between machines: %#x/%#x vs %#x/%#x", dramF, nvmF, dramS, nvmS)
	}
	return fast, slow, dramF, nvmF, regionPages
}

// TestFastPathEquivalenceRandomized is the property test for the core's
// fast path, the single-line Access shortcut. It drives a machine with the
// fast path on and a machine with DisableFastPaths through the same
// randomized sequence of accesses (random page, offset, size — many
// spanning lines and pages — and demand faults on first touch),
// single-page TLB shootdowns, and full TLB flushes. Every operation must
// charge the same latency, the clocks must stay in lockstep, and the
// final gem5-format stats dumps must be byte-identical.
func TestFastPathEquivalenceRandomized(t *testing.T) {
	for _, seed := range []uint64{3, 17, 0xBADCAB} {
		fast, slow, dram, nvm, pages := bootPair(t)
		sizes := []int{1, 2, 4, 8, 16, 32, 64, 100, 256}
		rng := sim.NewRNG(seed)
		for i := 0; i < 15_000; i++ {
			region := dram
			if rng.Intn(2) == 1 {
				region = nvm
			}
			page := rng.Uint64n(pages)
			switch op := rng.Intn(100); {
			case op < 90:
				// Offsets near the end of the page make line- and
				// page-spanning accesses routine.
				off := rng.Uint64n(mem.PageSize)
				size := sizes[rng.Intn(len(sizes))]
				if page == pages-1 && off+uint64(size) > mem.PageSize {
					off = mem.PageSize - uint64(size) // stay inside the mapping
				}
				va := region + page*mem.PageSize + off
				write := rng.Intn(3) == 0
				latF, errF := fast.Core.Access(va, write, size)
				latS, errS := slow.Core.Access(va, write, size)
				if (errF == nil) != (errS == nil) {
					t.Fatalf("seed %d op %d: access(%#x,%v,%d) err %v vs %v", seed, i, va, write, size, errF, errS)
				}
				if latF != latS {
					t.Fatalf("seed %d op %d: access(%#x,%v,%d) latency %d fast, %d slow",
						seed, i, va, write, size, latF, latS)
				}
			case op < 97:
				vpn := (region + page*mem.PageSize) / mem.PageSize
				fast.TLB.Invalidate(vpn)
				slow.TLB.Invalidate(vpn)
			default:
				fast.TLB.InvalidateAll()
				slow.TLB.InvalidateAll()
			}
			if fast.Clock.Now() != slow.Clock.Now() {
				t.Fatalf("seed %d op %d: clock %d fast, %d slow", seed, i, fast.Clock.Now(), slow.Clock.Now())
			}
		}
		var dumpF, dumpS bytes.Buffer
		if err := fast.Stats.WriteStatsFile(&dumpF); err != nil {
			t.Fatal(err)
		}
		if err := slow.Stats.WriteStatsFile(&dumpS); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(dumpF.Bytes(), dumpS.Bytes()) {
			t.Fatalf("seed %d: stats dumps differ between fast and slow paths", seed)
		}
	}
}

// translateRecorder records the (vpn, write) sequence OnTranslate observes.
type translateRecorder struct {
	calls []string
}

func (r *translateRecorder) OnTranslate(e *tlb.Entry, va uint64, write bool) {
	r.calls = append(r.calls, fmt.Sprintf("vpn=%#x write=%v", va/mem.PageSize, write))
}

func (r *translateRecorder) OnLLCMiss(e *tlb.Entry, va uint64, write bool) {}

// TestOnTranslateFiresOncePerPage pins the hook contract the prototype
// controllers (SSP, HSCC) depend on: OnTranslate fires exactly once per
// translated page per access — once for a single-line access, once per
// page for a spanning access, and still exactly once when the translation
// demand-faults and the translate loop retries after the kernel maps the
// page. The contract must hold identically with the fast paths on and off.
func TestOnTranslateFiresOncePerPage(t *testing.T) {
	for _, disable := range []bool{false, true} {
		t.Run(fmt.Sprintf("DisableFastPaths=%v", disable), func(t *testing.T) {
			cfg := machine.TestConfig()
			cfg.DisableFastPaths = disable
			m := machine.New(cfg)
			k := gemos.Boot(m)
			p, err := k.Spawn("hook-test")
			if err != nil {
				t.Fatal(err)
			}
			k.Switch(p)
			a, err := k.Mmap(p, 0, 4*mem.PageSize, gemos.ProtRead|gemos.ProtWrite, gemos.MapNVM)
			if err != nil {
				t.Fatal(err)
			}
			rec := &translateRecorder{}
			m.Core.SetHooks(rec)
			vpn := a / mem.PageSize

			mustAccess := func(va uint64, write bool, size int) {
				t.Helper()
				if _, err := m.Core.Access(va, write, size); err != nil {
					t.Fatalf("access(%#x,%v,%d): %v", va, write, size, err)
				}
			}
			expect := func(what string, want ...string) {
				t.Helper()
				if len(rec.calls) != len(want) {
					t.Fatalf("%s: %d OnTranslate calls %v, want %d %v", what, len(rec.calls), rec.calls, len(want), want)
				}
				for i := range want {
					if rec.calls[i] != want[i] {
						t.Fatalf("%s: call %d = %q, want %q", what, i, rec.calls[i], want[i])
					}
				}
				rec.calls = rec.calls[:0]
			}

			// First touch demand-faults; the translate retry after the
			// kernel installs the mapping must not double-fire the hook.
			mustAccess(a, true, 8)
			expect("demand-fault write", fmt.Sprintf("vpn=%#x write=true", vpn))

			// Warm single-line access: one call.
			mustAccess(a+64, false, 8)
			expect("warm read", fmt.Sprintf("vpn=%#x write=false", vpn))

			// Multi-line access inside one page: still one call.
			mustAccess(a+100, false, 200)
			expect("multi-line read", fmt.Sprintf("vpn=%#x write=false", vpn))

			// Page-spanning access: one call per page, in address order.
			// Page vpn+1 is untouched, so its translation demand-faults
			// mid-record — still exactly one call for it.
			mustAccess(a+mem.PageSize-32, true, 64)
			expect("page-spanning write",
				fmt.Sprintf("vpn=%#x write=true", vpn),
				fmt.Sprintf("vpn=%#x write=true", vpn+1))

			// A full flush forces a re-walk, which still fires exactly
			// once.
			m.TLB.InvalidateAll()
			mustAccess(a, false, 8)
			expect("post-flush read", fmt.Sprintf("vpn=%#x write=false", vpn))
		})
	}
}
