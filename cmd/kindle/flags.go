package main

import (
	"flag"
	"fmt"
	"slices"
	"strings"
	"time"

	"kindle/internal/obs"
	"kindle/internal/persist"
)

// options is one parsed kindle command line. Every mode reads it.
type options struct {
	image, benchmark, trafficSpec string
	small                         bool
	decodeWorkers                 int

	persistMode   string
	interval      time.Duration
	crashAt       float64
	sspInterval   time.Duration
	hsccThreshold uint
	idleAfter     time.Duration
	idleTick      time.Duration

	stats                         bool
	statsOut, traceOut, traceCats string
	traceMask                     obs.Category // parsed -trace-categories
	statsInterval                 time.Duration
	monitorAddr                   string
	monitorHold                   time.Duration

	shards, segmentChunks   int
	shardStatsDir           string
	snapshotOut, snapshotIn string
	snapshotAt              int
	tenants                 int
	seed                    uint64
	seedSet                 bool // -seed given, even as 0

	fs *flag.FlagSet // the parsed flags, which the refusal rows look up by name
}

// schemes maps -persist values to persistence schemes.
var schemes = map[string]persist.Scheme{"rebuild": persist.Rebuild, "persistent": persist.Persistent}

// parseFlags parses a kindle command line, then refuses it with the first
// row of refusals it matches.
func parseFlags(args []string) (options, error) {
	var o options
	fs := flag.NewFlagSet("kindle", flag.ContinueOnError)
	fs.StringVar(&o.image, "image", "", "disk image to replay (from kindle-prep)")
	fs.StringVar(&o.benchmark, "benchmark", "", "trace a benchmark on the fly instead of -image")
	fs.BoolVar(&o.small, "small", false, "reduced workload configuration")
	fs.StringVar(&o.persistMode, "persist", "", "process persistence scheme: rebuild or persistent")
	fs.DurationVar(&o.interval, "interval", 10*time.Millisecond, "checkpoint interval")
	fs.Float64Var(&o.crashAt, "crash-at", 0, "crash after this fraction of the trace (0 = no crash)")
	fs.DurationVar(&o.sspInterval, "ssp", 0, "enable SSP with this consistency interval")
	fs.UintVar(&o.hsccThreshold, "hscc", 0, "enable HSCC with this fetch threshold")
	fs.BoolVar(&o.stats, "stats", false, "dump simulator statistics")
	fs.StringVar(&o.statsOut, "stats-out", "", "write gem5-format stats file here")
	fs.StringVar(&o.traceOut, "trace-out", "", "write Chrome trace-event JSON here (open in chrome://tracing)")
	fs.StringVar(&o.traceCats, "trace-categories", "all", "comma-separated trace categories: mem,cache,tlb,ptwalk,checkpoint,recovery,syscall or all")
	fs.DurationVar(&o.statsInterval, "stats-interval", 0, "dump gem5 interval stat blocks every simulated duration (0 = off)")
	fs.StringVar(&o.monitorAddr, "monitor", "", "serve live telemetry on this HTTP address (e.g. :8090): /metrics, /events, /progress, /debug/pprof/")
	fs.DurationVar(&o.monitorHold, "monitor-hold", 0, "keep the monitor endpoint serving this long after the run completes")
	fs.IntVar(&o.decodeWorkers, "decode-workers", 0, "v2 chunk-decode worker pool size (0 = GOMAXPROCS; 1 still overlaps decode with replay)")
	fs.DurationVar(&o.idleAfter, "idle-after", 0, "keep the machine idling this much simulated time after the replay; checkpoint and other timers keep firing")
	fs.DurationVar(&o.idleTick, "idle-tick", 10*time.Microsecond, "boundary grain for -idle-after idling: an event fires at the first boundary at or after its deadline (0 = one step to the end)")
	fs.IntVar(&o.shards, "shards", 0, "replay the trace sharded across N machine instances (0 = off); requires a v2 -image")
	fs.IntVar(&o.segmentChunks, "segment-chunks", 0, "sharded partition grain in chunks (0 = default); affects results, unlike -shards")
	fs.StringVar(&o.shardStatsDir, "shard-stats-dir", "", "with -shards, also write each segment's stats file into this directory")
	fs.StringVar(&o.snapshotOut, "snapshot-out", "", "freeze the machine into this file mid-replay (copy-on-write; the run still completes normally)")
	fs.IntVar(&o.snapshotAt, "snapshot-at", 0, "with -snapshot-out, take the snapshot after this many records (rounded up to a tick boundary; 0 = right after launch)")
	fs.StringVar(&o.snapshotIn, "snapshot-in", "", "resume a run frozen by -snapshot-out; requires -image pointing at the same trace")
	fs.StringVar(&o.trafficSpec, "traffic", "", "run the multi-tenant traffic engine with this spec (\"default\" or key=value;... — see internal/traffic.ParseSpec)")
	fs.IntVar(&o.tenants, "tenants", 0, "with -traffic, override the spec's tenant count")
	fs.Uint64Var(&o.seed, "seed", 0, "with -traffic, override the spec's RNG seed")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o.fs = fs
	fs.Visit(func(fl *flag.Flag) { o.seedSet = o.seedSet || fl.Name == "seed" })
	o.traceMask, _ = obs.ParseCategories(o.traceCats) // an unknown name yields 0, refused below
	for _, r := range refusals {
		if err := r.check(&o); err != nil {
			return options{}, err
		}
	}
	return o, nil
}

// refusals is every command line kindle refuses, with the reason. A flag is
// on when its value differs from its default, or, for -seed, when it is
// given at all. Rows are checked in order and
// the first match is the error, so out-of-range values are reported before
// the combinations they take part in.
var refusals = []refusal{
	{kind: invalid, flags: of("ssp", "stats-interval", "monitor-hold", "decode-workers", "idle-after", "idle-tick",
		"shards", "segment-chunks", "snapshot-at", "tenants"), bad: (*options).negative, why: "must not be negative"},
	{kind: invalid, flags: of("interval"), bad: func(o *options, _ string) bool { return o.interval <= 0 }, why: "must be positive"},
	{kind: invalid, flags: of("crash-at"), bad: func(o *options, _ string) bool { return !(o.crashAt >= 0 && o.crashAt <= 1) },
		why: "must be a fraction of the trace in [0, 1]"},
	{kind: invalid, flags: of("persist"), bad: func(o *options, _ string) bool {
		_, ok := schemes[o.persistMode]
		return o.persistMode != "" && !ok
	}, why: "must be rebuild or persistent"},
	{kind: invalid, flags: of("trace-categories"), bad: func(o *options, _ string) bool { return o.traceMask == 0 },
		why: "must select some of mem, cache, tlb, ptwalk, checkpoint, recovery, syscall or all"},

	// A snapshot captures one replaying machine, its persistence state and
	// the pending events that have re-arm handlers.
	{kind: conflicts, flags: of("snapshot-out", "snapshot-in"), others: of("traffic", "shards"), why: "a snapshot captures one replaying machine"},
	{kind: conflicts, flags: of("snapshot-out", "snapshot-in"), others: of("ssp", "hscc"), why: "their pending events have no re-arm handler"},
	{kind: conflicts, flags: of("snapshot-out", "snapshot-in"), others: of("crash-at"), why: "crash injection does not span a snapshot yet"},
	{kind: conflicts, flags: of("snapshot-out", "snapshot-in"), others: of("trace-out", "stats-interval"),
		why: "the trace ring and the interval dumper are not captured in a snapshot"},
	{kind: conflicts, flags: of("snapshot-in"), others: of("persist"), why: "the snapshot carries its persistence state"},
	{kind: conflicts, flags: of("snapshot-in"), others: of("snapshot-out"), why: "a run either resumes or captures"},
	// The traffic engine generates its own load on one machine.
	{kind: conflicts, flags: of("traffic"), others: of("image", "benchmark"), why: "the engine generates its own load"},
	{kind: conflicts, flags: of("traffic"), others: of("shards"), why: "one machine, many tenants"},
	{kind: conflicts, flags: of("traffic"), others: of("ssp", "hscc"), why: "the prototypes attach to a replayed process"},
	{kind: conflicts, flags: of("traffic"), others: of("crash-at"), why: "crash points are trace fractions"},
	{kind: conflicts, flags: of("traffic"), others: of("idle-after"), why: "the engine idles between arrivals itself"},
	// Shards are independent machines whose stats merge after the run.
	{kind: conflicts, flags: of("shards"), others: of("benchmark"), why: "sharding splits an on-disk v2 image"},
	{kind: conflicts, flags: of("shards"), others: of("persist", "crash-at"), why: "persistence is per machine"},
	{kind: conflicts, flags: of("shards"), others: of("ssp", "hscc"), why: "the prototypes attach to one machine"},
	{kind: conflicts, flags: of("shards"), others: of("trace-out", "stats-interval"),
		why: "per-segment traces and interval blocks are not merged"},
	{kind: conflicts, flags: of("shards"), others: of("idle-after"), why: "idling is per machine"},

	{kind: requires, flags: of("shards", "snapshot-in"), others: of("image")},
	{kind: requires, others: of("image", "benchmark", "traffic")},
	{kind: requires, flags: of("interval", "crash-at"), others: of("persist")},
	{kind: requires, flags: of("idle-tick"), others: of("idle-after")},
	{kind: requires, flags: of("trace-categories"), others: of("trace-out")},
	{kind: requires, flags: of("monitor-hold"), others: of("monitor")},
	{kind: requires, flags: of("segment-chunks", "shard-stats-dir"), others: of("shards")},
	{kind: requires, flags: of("snapshot-at"), others: of("snapshot-out")},
	{kind: requires, flags: of("tenants", "seed"), others: of("traffic")},
}

// A refusal is one row of the refusals table.
type refusal struct {
	kind   refusalKind
	flags  []string
	others []string
	bad    func(o *options, flag string) bool // invalid rows
	why    string
}

type refusalKind int

const (
	invalid   refusalKind = iota // a flag's value fails bad
	conflicts                    // a flag and one of others are both on
	requires                     // a flag is on and none of others is; with no flags, none of others is on
)

func of(flags ...string) []string { return flags }

// check returns the row's error if o matches it.
func (r refusal) check(o *options) error {
	switch r.kind {
	case invalid:
		for _, name := range r.flags {
			if r.bad(o, name) {
				return fmt.Errorf("-%s=%s: %s", name, o.fs.Lookup(name).Value, r.why)
			}
		}
	case conflicts:
		for _, a := range r.flags {
			for _, b := range r.others {
				if o.on(a) && o.on(b) {
					return fmt.Errorf("-%s is incompatible with -%s: %s", a, b, r.why)
				}
			}
		}
	case requires:
		if slices.ContainsFunc(r.others, o.on) {
			return nil
		}
		alts := "-" + strings.Join(r.others, ", -")
		if len(r.flags) == 0 {
			return fmt.Errorf("one of %s is required", alts)
		}
		for _, name := range r.flags {
			if o.on(name) {
				return fmt.Errorf("-%s requires %s", name, alts)
			}
		}
	}
	return nil
}

// on reports whether flag name asks for something: it differs from its
// default, or it is -seed, where 0 is a seed like any other, and was given.
func (o *options) on(name string) bool {
	if name == "seed" {
		return o.seedSet
	}
	fl := o.fs.Lookup(name)
	return fl.Value.String() != fl.DefValue
}

// negative reports whether the int or duration flag name is below zero.
func (o *options) negative(name string) bool {
	switch v := o.fs.Lookup(name).Value.(flag.Getter).Get().(type) {
	case int:
		return v < 0
	case time.Duration:
		return v < 0
	}
	return false
}
