package cpu_test

import (
	"fmt"
	"testing"

	"kindle/internal/gemos"
	"kindle/internal/machine"
	"kindle/internal/mem"
	"kindle/internal/obs"
	"kindle/internal/tlb"
)

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
// page. The contract must hold identically with tracing off and on. (The
// subtest names come from the DisableFastPaths switch that the two passes
// once set.)
func TestOnTranslateFiresOncePerPage(t *testing.T) {
	for _, pass := range []struct {
		name string
		cats obs.Category
	}{{"DisableFastPaths=false", 0}, {"DisableFastPaths=true", obs.CatAll}} {
		t.Run(pass.name, func(t *testing.T) {
			cfg := machine.TestConfig()
			cfg.Trace.Categories = pass.cats
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

			// A full flush forces a re-walk, which still fires exactly once.
			m.TLB.InvalidateAll()
			mustAccess(a, false, 8)
			expect("post-flush read", fmt.Sprintf("vpn=%#x write=false", vpn))

			if pass.cats != 0 && m.Tracer.Len() == 0 {
				t.Fatal("traced machine recorded no events")
			}
		})
	}
}
