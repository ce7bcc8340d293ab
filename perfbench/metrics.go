package main

// endToEnd are the metrics of an untraced run, the same for every workload.
var endToEnd = []metricDef{
	{"accesses_per_s", "1/s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MiB"},
	{"alloc_mb", "MiB"},
	{"sim_ms", "ms"},
}

// simCounts are the simulated event counts of a traced run: the metric
// name, the stats counter it reads, and whether it is reported per 1k
// accesses (otherwise per run).
var simCounts = []struct {
	name, counter string
	perKilo       bool
}{
	{"sim.tlb_l2_mpka", "tlb.l2.miss", true},
	{"sim.walks_pka", "pt.walk", true},
	{"sim.l1_mpka", "cache.l1.miss", true},
	{"sim.llc_mpka", "cache.llc.miss", true},
	{"sim.dram_reads_pka", "dram.read", true},
	{"sim.nvm_reads_pka", "nvm.read", true},
	{"sim.nvm_writes_pka", "nvm.write", true},
	{"sim.nvm_stalls_pka", "nvm.write_stall", true},
	{"sim.faults_pka", "os.fault_demand", true},
	{"sim.checkpoints", "persist.checkpoints", false},
	{"sim.redo_appends", "persist.redo_append", false},
}

// spanMetrics turn span totals into per-layer metrics. per says what a
// span's total time is divided by: each call, each replayed record, or each
// run; scale converts nanoseconds to the unit.
var spanMetrics = []struct {
	name, span string
	per        string // "call", "record" or "run"
	unit       string
	scale      float64
}{
	{"span.step_ns", spanStep, "record", "ns", 1},
	{"span.next_ns", spanNext, "record", "ns", 1},
	{"decode.buffer_stall_ms", spanBufferStall, "run", "ms", 1e-6},
	{"decode.reorder_stall_ms", spanReorderStall, "run", "ms", 1e-6},
	{"span.mmap_us", spanMmap, "call", "us", 1e-3},
	{"span.munmap_us", spanMunmap, "call", "us", 1e-3},
	{"span.touch_ns", spanTouch, "call", "ns", 1},
	{"span.tick_ms", spanTick, "run", "ms", 1e-6},
	{"span.idle_ms", spanIdle, "run", "ms", 1e-6},
	{"span.checkpoint_ms", spanCheckpoint, "run", "ms", 1e-6},
	{"span.recover_ms", spanRecover, "run", "ms", 1e-6},
	{"span.sharded_ms", spanSharded, "run", "ms", 1e-6},
	{"span.snapshot_us", spanSnapshot, "call", "us", 1e-3},
	{"span.resume_us", spanResume, "call", "us", 1e-3},
	{"span.merge_ms", spanMerge, "call", "ms", 1e-6},
	{"span.dump_ms", spanDump, "run", "ms", 1e-6},
}

// perLayer are the metrics of a traced run, the same for every workload.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{"layer." + l + "_ns", "ns"})
	}
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{s.name, s.unit})
	}
	defs = append(defs, metricDef{"trace_overhead", "ratio"})
	for _, c := range simCounts {
		unit := "count"
		if c.perKilo {
			unit = "per_1k"
		}
		defs = append(defs, metricDef{c.name, unit})
	}
	return append(defs, metricDef{"sim.kernel_share", "ratio"})
}()

// endToEndMetrics computes the untraced metrics: medians over the runs
// (setup_s over the set-ups). sim_ms is the same in every run, which the
// harness's digest check enforces.
func endToEndMetrics(setupTimes []float64, runs []sample) map[string]float64 {
	const mib = 1 << 20
	return map[string]float64{
		"accesses_per_s": medianOf(runs, func(s sample) float64 { return float64(s.res.accesses) / s.dur.Seconds() }),
		"setup_s":        median(setupTimes),
		"peak_rss_mb":    medianOf(runs, func(s sample) float64 { return float64(s.peakRSS) / mib }),
		"alloc_mb":       medianOf(runs, func(s sample) float64 { return float64(s.allocBytes) / mib }),
		"sim_ms":         runs[0].res.simCycles.Millis(),
	}
}

// perLayerMetrics computes the traced metrics from the traced runs, with
// the untraced runs as the trace_overhead baseline.
func perLayerMetrics(plain, traced []sample, tr *tracer) map[string]float64 {
	var accesses, records float64
	layerNs := map[string]int64{}
	for _, s := range traced {
		accesses += float64(s.res.accesses)
		records += float64(s.res.records)
		for l, ns := range s.layerNs {
			layerNs[l] += ns
		}
	}
	out := map[string]float64{}
	for _, l := range layers {
		out["layer."+l+"_ns"] = float64(layerNs[l]) / accesses
	}

	runs := float64(len(traced))
	for _, m := range spanMetrics {
		t := tr.total(m.span)
		var per float64
		switch m.per {
		case "call":
			per = float64(t.calls)
		case "record":
			per = records
		case "run":
			per = runs
		}
		v := 0.0
		if per > 0 {
			v = float64(t.ns) * m.scale / per
		}
		out[m.name] = v
	}

	dur := func(s sample) float64 { return s.dur.Seconds() }
	out["trace_overhead"] = medianOf(traced, dur) / medianOf(plain, dur)

	// Simulated counts repeat exactly, so one run gives them.
	res := traced[0].res
	count := func(name string) float64 {
		var n uint64
		for _, st := range res.stats {
			n += st.Get(name)
		}
		return float64(n)
	}
	for _, c := range simCounts {
		v := count(c.counter)
		if c.perKilo {
			v = 1000 * v / float64(res.accesses)
		}
		out[c.name] = v
	}
	out["sim.kernel_share"] = count("cpu.kernel_cycles") / float64(res.simCycles)
	return out
}
