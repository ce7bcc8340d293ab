package main

import (
	"fmt"

	"kindle/internal/core"
	"kindle/internal/machine"
	"kindle/internal/traffic"
)

// traffic drives the multi-tenant synthetic-load engine: N gemOS processes
// time-sliced on one machine, contending for shared DRAM/NVM and (with
// -persist) checkpoint bandwidth. Same seed + spec ⇒ byte-identical stats
// dumps.
func (r *run) traffic() error {
	specStr := r.trafficSpec
	if specStr == "default" {
		specStr = ""
	}
	spec, err := traffic.ParseSpec(specStr)
	if err != nil {
		return err
	}
	if r.tenants > 0 {
		spec.Tenants = r.tenants
	}
	if r.seedSet {
		spec.Seed = r.seed
	}
	if err := spec.Validate(); err != nil {
		return err
	}

	cfg := machine.DefaultConfig()
	if r.small {
		cfg = machine.TestConfig()
	}
	f := core.New(r.machineConfig(cfg))
	r.prog.total.Store(int64(spec.Tenants * spec.Ops))
	if err := r.observe(f, r.prog.payload("ops_done", "ops_total", map[string]any{"tenants": spec.Tenants}), nil); err != nil {
		return err
	}
	if err := r.enablePersistence(f); err != nil {
		return err
	}
	if r.persistMode != "" {
		f.Manager().Start()
	}

	fmt.Printf("traffic: %d tenants, %d ops each, %s %s-loop, seed %d\n",
		spec.Tenants, spec.Ops, spec.Arrival, spec.Loop, spec.Seed)
	var onOp func(done, total int)
	if r.mon != nil {
		onOp = func(done, _ int) { r.prog.done.Store(int64(done)) }
	}
	res, err := f.RunTraffic(spec, onOp)
	if err != nil {
		return err
	}
	r.prog.finished.Store(true)

	fmt.Printf("completed %d ops in %.3f ms simulated (%d cycles)\n",
		res.Ops, f.M.ElapsedMillis(), f.M.Clock.Now())
	fmt.Printf("latency cycles: mean %.0f  p50 %d  p95 %d  p99 %d\n",
		res.MeanLat, res.P50, res.P95, res.P99)
	fmt.Printf("fairness (Jain, per-tenant mean latency): %.4f\n", res.Jain)
	for _, t := range res.Tenants {
		kind := "dram"
		if t.NVM {
			kind = "nvm"
		}
		fmt.Printf("  %s %-4s ops=%-6d mean=%-8.0f p99=%-8d cpu=%-10d faults=%-5d resident=%-5d switches=%d\n",
			t.Name, kind, t.Ops, t.MeanLat, t.P99, t.Acct.CPUCycles, t.Acct.Faults, t.Acct.ResidentPages, t.Acct.Switches)
	}
	return r.finish(f.M.Stats, f.M.Tracer, nil)
}
