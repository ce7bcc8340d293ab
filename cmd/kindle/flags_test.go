package main

import (
	"strings"
	"testing"
)

// TestParseFlagsRefuses lists every refused command line by its arguments,
// not by walking the refusals table, so a row that goes missing fails here.
// Each line is otherwise valid; the error must name every listed flag.
func TestParseFlagsRefuses(t *testing.T) {
	for _, tc := range []struct {
		args string
		want []string
	}{
		// Out-of-range values.
		{"-image i -ssp=-1ms", of("-ssp")},
		{"-image i -stats-interval=-1ms", of("-stats-interval")},
		{"-image i -monitor :0 -monitor-hold=-1s", of("-monitor-hold")},
		{"-image i -decode-workers=-1", of("-decode-workers")},
		{"-image i -idle-after=-1ms", of("-idle-after")},
		{"-image i -persist rebuild -idle-after 1ms -idle-tick=-1us", of("-idle-tick")},
		{"-image i -shards=-2", of("-shards")},
		{"-image i -shards 2 -segment-chunks=-1", of("-segment-chunks")},
		{"-image i -persist rebuild -snapshot-out s -snapshot-at=-5", of("-snapshot-at")},
		{"-traffic default -tenants=-1", of("-tenants")},
		{"-image i -persist rebuild -interval=-1ms", of("-interval")},
		{"-image i -persist rebuild -interval 0", of("-interval")},
		{"-image i -persist rebuild -crash-at 1.5", of("-crash-at")},
		{"-image i -persist rebuild -crash-at=-0.5", of("-crash-at")},
		{"-image i -persist bogus", of("-persist")},
		{"-image i -trace-out t -trace-categories bogus", of("-trace-categories")},
		{"-image i -trace-out t -trace-categories=", of("-trace-categories")},
		{"-image i -event-clock", of("-event-clock")},

		// A snapshot captures one replaying machine.
		{"-image i -snapshot-out s -traffic default", of("-snapshot-out", "-traffic")},
		{"-image i -snapshot-in s -traffic default", of("-snapshot-in", "-traffic")},
		{"-image i -snapshot-out s -shards 2", of("-snapshot-out", "-shards")},
		{"-image i -snapshot-in s -shards 2", of("-snapshot-in", "-shards")},
		{"-image i -snapshot-out s -ssp 1ms", of("-snapshot-out", "-ssp")},
		{"-image i -snapshot-in s -ssp 1ms", of("-snapshot-in", "-ssp")},
		{"-image i -snapshot-out s -hscc 25", of("-snapshot-out", "-hscc")},
		{"-image i -snapshot-in s -hscc 25", of("-snapshot-in", "-hscc")},
		{"-image i -persist rebuild -snapshot-out s -crash-at 0.5", of("-snapshot-out", "-crash-at")},
		{"-image i -snapshot-in s -crash-at 0.5", of("-snapshot-in", "-crash-at")},
		{"-image i -snapshot-out s -trace-out t", of("-snapshot-out", "-trace-out")},
		{"-image i -snapshot-in s -trace-out t", of("-snapshot-in", "-trace-out")},
		{"-image i -snapshot-out s -stats-interval 1ms", of("-snapshot-out", "-stats-interval")},
		{"-image i -snapshot-in s -stats-interval 1ms", of("-snapshot-in", "-stats-interval")},
		{"-image i -snapshot-in s -persist rebuild", of("-snapshot-in", "-persist")},
		{"-image i -snapshot-in s -snapshot-out t", of("-snapshot-in", "-snapshot-out")},

		// The traffic engine generates its own load on one machine.
		{"-traffic default -image i", of("-traffic", "-image")},
		{"-traffic default -benchmark Ycsb_mem", of("-traffic", "-benchmark")},
		{"-traffic default -shards 2", of("-traffic", "-shards")},
		{"-traffic default -ssp 1ms", of("-traffic", "-ssp")},
		{"-traffic default -hscc 25", of("-traffic", "-hscc")},
		{"-traffic default -persist rebuild -crash-at 0.5", of("-traffic", "-crash-at")},
		{"-traffic default -idle-after 1ms", of("-traffic", "-idle-after")},

		// Shards are independent machines merged after the run.
		{"-shards 2 -benchmark Ycsb_mem", of("-shards", "-benchmark")},
		{"-image i -shards 2 -persist rebuild", of("-shards", "-persist")},
		{"-image i -shards 2 -crash-at 0.5", of("-shards", "-crash-at")},
		{"-image i -shards 2 -ssp 1ms", of("-shards", "-ssp")},
		{"-image i -shards 2 -hscc 25", of("-shards", "-hscc")},
		{"-image i -shards 2 -trace-out t", of("-shards", "-trace-out")},
		{"-image i -shards 2 -stats-interval 1ms", of("-shards", "-stats-interval")},
		{"-image i -shards 2 -idle-after 1ms", of("-shards", "-idle-after")},

		// Inputs, and flags that only modify another flag.
		{"", of("-image", "-benchmark", "-traffic")},
		{"-shards 2", of("-shards", "-image")},
		{"-benchmark Ycsb_mem -snapshot-in s", of("-snapshot-in", "-image")},
		{"-image i -interval 5ms", of("-interval", "-persist")},
		{"-benchmark Ycsb_mem -small -crash-at 0.5", of("-crash-at", "-persist")},
		{"-image i -idle-tick 1us", of("-idle-tick", "-idle-after")},
		{"-image i -trace-categories mem", of("-trace-categories", "-trace-out")},
		{"-image i -monitor-hold 1s", of("-monitor-hold", "-monitor")},
		{"-image i -segment-chunks 2", of("-segment-chunks", "-shards")},
		{"-image i -shard-stats-dir d", of("-shard-stats-dir", "-shards")},
		{"-image i -snapshot-at 4096", of("-snapshot-at", "-snapshot-out")},
		{"-image i -tenants 4", of("-tenants", "-traffic")},
		{"-image i -seed 9", of("-seed", "-traffic")},
		{"-image i -seed 0", of("-seed", "-traffic")},
	} {
		t.Run(tc.args, func(t *testing.T) {
			_, err := parseFlags(strings.Fields(tc.args))
			if err == nil {
				t.Fatalf("kindle %s was accepted", tc.args)
			}
			for _, w := range tc.want {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("error does not name %s: %v", w, err)
				}
			}
		})
	}
}

// TestParseFlagsAccepts covers the cells that compose, the documented
// command lines, and flags left at their off value.
func TestParseFlagsAccepts(t *testing.T) {
	for _, args := range []string{
		// Cells that compose across modes and observers.
		"-image i -persist rebuild -interval 500us -idle-after 3ms -snapshot-out s -snapshot-at 50000",
		"-image i -snapshot-in s -idle-after 3ms -idle-tick 1us",
		"-traffic default -stats-interval 100us",
		"-traffic default -trace-out t -trace-categories mem,syscall",
		"-traffic default -monitor :0 -monitor-hold 1s",
		"-image i -snapshot-in s -monitor :0",

		"-image i -persist rebuild -interval 10ms -crash-at 0.5",
		"-benchmark Gapbs_pr -small -ssp 5ms",
		"-benchmark Ycsb_mem -small -hscc 25 -stats-interval 1ms -trace-out t",
		"-image i -shards 4 -segment-chunks 2 -shard-stats-dir d -stats-out s",
		"-traffic tenants=16;ops=2000 -seed 7 -tenants 4 -persist rebuild -interval 1ms -small",
		"-image i -persist rebuild -idle-after 2s -idle-tick 0",
		"-image i -decode-workers 2 -stats",

		// Off values are the defaults, so nothing is asked for.
		"-image i -shards 0 -crash-at 0 -ssp 0 -persist rebuild",
		"-image i -interval 10ms -idle-tick 10us -trace-categories all",
	} {
		if _, err := parseFlags(strings.Fields(args)); err != nil {
			t.Errorf("kindle %s: %v", args, err)
		}
	}

	o, err := parseFlags(strings.Fields("-traffic default -seed 0"))
	if err != nil || !o.seedSet || o.seed != 0 {
		t.Fatalf("-seed 0 must still override the spec's seed: seedSet %v, err %v", o.seedSet, err)
	}
}
