// Command kindle-benchdiff compares two bench report JSON files (see `make
// bench` and BENCH_replay.json) and exits non-zero on a throughput
// regression beyond the failure threshold. CI's bench-regression job runs
// it against the committed snapshot; throughputs are normalized by each
// report's gomaxprocs so differently-sized runners compare sanely.
//
// Usage:
//
//	kindle-benchdiff -base BENCH_replay.json -fresh /tmp/BENCH_fresh.json
package main

import (
	"flag"
	"fmt"
	"os"

	"kindle/internal/bench"
)

func main() {
	base := flag.String("base", "BENCH_replay.json", "committed baseline report")
	fresh := flag.String("fresh", "", "freshly measured report")
	warn := flag.Float64("warn", 0.10, "warn when a metric drops more than this fraction")
	fail := flag.Float64("fail", 0.20, "fail when a metric drops more than this fraction")
	ratioWarn := flag.Float64("ratio-warn", 0.10, "warn when the stream/materialized throughput ratio drops more than this fraction (0 disables)")
	ratioFail := flag.Float64("ratio-fail", 0.20, "fail when the stream/materialized throughput ratio drops more than this fraction (0 disables)")
	minRatio := flag.Float64("min-ratio", 1.0, "fail when the fresh stream/materialized ratio is below this absolute floor; set 0 on hosts without a spare core, where the pipelined decoder cannot hide decode cost")
	normEnv := flag.Bool("normalize-env", false, "compare reports from different gomaxprocs/suite_scale/shards/decode_workers environments, normalizing throughput per proc (refused otherwise)")
	flag.Parse()

	if *fresh == "" {
		fmt.Fprintln(os.Stderr, "kindle-benchdiff: -fresh required")
		os.Exit(2)
	}
	b, err := bench.LoadReport(*base)
	if err != nil {
		fatal(err)
	}
	f, err := bench.LoadReport(*fresh)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("base:  %.0f rec/s (stream %.0f, ratio %.2f) on %d procs\n", b.RecordsPerSec, b.StreamRecordsPerSec, b.Ratio(), b.GOMAXPROCS)
	fmt.Printf("       %s\n", b.Env)
	fmt.Printf("fresh: %.0f rec/s (stream %.0f, ratio %.2f) on %d procs\n", f.RecordsPerSec, f.StreamRecordsPerSec, f.Ratio(), f.GOMAXPROCS)
	fmt.Printf("       %s\n", f.Env)
	warnings, err := bench.CompareReports(b, f, bench.CompareOptions{
		WarnFrac:      *warn,
		FailFrac:      *fail,
		RatioWarnFrac: *ratioWarn,
		RatioFailFrac: *ratioFail,
		MinRatio:      *minRatio,
		NormalizeEnv:  *normEnv,
	})
	for _, w := range warnings {
		fmt.Println("warning:", w)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println("bench comparison ok")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "kindle-benchdiff:", err)
	os.Exit(1)
}
