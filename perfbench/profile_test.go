package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"
)

func TestAttributeSyntheticStacks(t *testing.T) {
	samples := []profSample{
		// Stdlib decompression under the decoder goroutine: trace.
		{ns: 30, stack: []string{
			"runtime.memmove",
			"compress/flate.(*decompressor).huffmanBlock",
			"kindle/internal/trace.(*v2PipelineSource).decodeLoop",
		}},
		// Map operations inside the persistence manager, called from the
		// kernel: the innermost kindle frame (persist) wins over gemos.
		{ns: 20, stack: []string{
			"runtime.mapassign_fast64",
			"kindle/internal/persist.(*Manager).LogMapping",
			"kindle/internal/gemos.(*Kernel).HandlePageFault",
			"kindle/internal/cpu.(*Core).Access",
		}},
		// A kindle package outside the layer list falls through to its
		// caller, and a closure's package is its enclosing function's.
		{ns: 10, stack: []string{
			"kindle/internal/obs.(*Tracer).Span",
			"kindle/internal/cache.(*Hierarchy).Access.func1",
		}},
		// No kindle frame at all: gc.
		{ns: 25, stack: []string{"runtime.gcDrain", "runtime.gcBgMarkWorker"}},
		{ns: 5, stack: nil},
		// The benchmark's own frames are not a layer either.
		{ns: 10, stack: []string{"main.(*harness).check", "kindle/internal/core.(*Replay).Step"}},
	}
	got := attribute(samples)
	want := map[string]int64{"trace": 30, "persist": 20, "cache": 10, "gc": 30, "core": 10}
	for l, ns := range want {
		if got[l] != ns {
			t.Errorf("layer %s: got %d ns, want %d", l, got[l], ns)
		}
	}
	var total, in int64
	for _, s := range samples {
		total += s.ns
	}
	share := 0.0
	for _, l := range layers {
		share += float64(got[l]) / float64(total)
		in += got[l]
	}
	if in != total || math.Abs(share-1) > 1e-12 {
		t.Errorf("layer shares sum to %v (%d of %d ns), want 1", share, in, total)
	}
	if len(got) > len(layers) {
		t.Errorf("attribution produced layers outside the list: %v", got)
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"kindle/internal/tlb.(*TLB).Lookup":       "tlb",
		"kindle/internal/pt.(*Table).Walk":        "pt",
		"kindle/internal/sim.(*Stats).MergeFrom":  "sim",
		"kindle/internal/obs/monitor.(*M).Handle": "",
		"kindle/internal/workloads.YCSB":          "",
		"runtime.mallocgc":                        "",
		"kindle/perfbench.run":                    "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

// TestParseProfileRoundTrip profiles real simulator work and checks the
// decoder recovers samples whose stacks reach the simulator's layers.
func TestParseProfileRoundTrip(t *testing.T) {
	j, err := setupYCSB(1, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	for start := time.Now(); time.Since(start) < 300*time.Millisecond; {
		if _, err := j(nil); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples decoded")
	}
	byLayer := attribute(samples)
	var simulated int64
	for l, ns := range byLayer {
		if l != "gc" {
			simulated += ns
		}
	}
	if simulated == 0 {
		t.Errorf("no CPU time charged to a simulator layer: %v", byLayer)
	}
}
