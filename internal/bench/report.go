package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"
)

// Report is the machine-readable performance snapshot `make bench` writes
// to BENCH_replay.json. The CI bench-regression job records a fresh one on
// every PR and gates it against the committed snapshot with
// cmd/kindle-benchdiff.
type Report struct {
	// RecordsPerSec is BenchmarkReplayThroughput's custom metric: trace
	// records simulated per host second through the full access path,
	// replaying a materialized image.
	RecordsPerSec float64 `json:"records_per_sec"`
	// StreamRecordsPerSec is the same metric for
	// BenchmarkStreamReplayThroughput, replaying through the chunked v2
	// decode pool. Zero in reports from before the streaming pipeline
	// existed.
	StreamRecordsPerSec float64 `json:"stream_records_per_sec,omitempty"`
	// StreamVsMaterialized records StreamRecordsPerSec/RecordsPerSec for
	// human readers of the snapshot; WriteFile keeps it in sync and
	// comparisons recompute it from the throughputs (see Ratio), so a
	// hand-edited value cannot skew the gate.
	StreamVsMaterialized float64 `json:"stream_vs_materialized,omitempty"`
	// ShardedRecordsPerSec is BenchmarkShardedReplayThroughput's metric:
	// records per host second through core.ReplaySharded at Shards shards.
	// Zero in reports from before sharded replay existed.
	ShardedRecordsPerSec float64 `json:"sharded_records_per_sec,omitempty"`
	// Shards is the shard count ShardedRecordsPerSec was measured at;
	// DecodeWorkers the decode pool size behind StreamRecordsPerSec. Both
	// are environment knobs: reports measured at different values are
	// refused without normalization, like gomaxprocs.
	Shards        int `json:"shards,omitempty"`
	DecodeWorkers int `json:"decode_workers,omitempty"`
	// ForkSpeedup is the wall-clock ratio of re-simulating a 32,000-record
	// replay prefix over resuming a snapshot taken at its end
	// (BenchmarkColdReplayWarmup ns/op over BenchmarkForkReplayWarmup
	// ns/op): >1 means resuming a mid-replay snapshot, as `kindle
	// -snapshot-in` and the crash sweep do, beats simulating the prefix
	// again. Informational, never gated (resume and re-simulation produce
	// byte-identical results; this only records the wall-clock win). Zero
	// in reports from before machine snapshots existed.
	ForkSpeedup float64 `json:"fork_speedup,omitempty"`
	// ForkAllocsPerFork is BenchmarkForkReplayWarmup's allocs/op: the
	// allocation count of one copy-on-write resume. Informational.
	ForkAllocsPerFork uint64 `json:"fork_allocs_per_fork,omitempty"`
	// SuiteWallClockSec is the wall-clock time of one full RunAll at
	// SuiteScale with the default worker pool.
	SuiteWallClockSec float64 `json:"suite_wall_clock_sec"`
	SuiteScale        float64 `json:"suite_scale"`
	GOMAXPROCS        int     `json:"gomaxprocs"`
	// Env records the toolchain, platform and UTC time the report was
	// measured under. WriteFile stamps it automatically; it is printed by
	// kindle-benchdiff for provenance, never gated on. Nil in reports
	// written before env stamping.
	Env *ReportEnv `json:"env,omitempty"`
}

// ReportEnv is the provenance block stamped into every written report.
type ReportEnv struct {
	GoVersion    string `json:"go_version"`
	OSArch       string `json:"os_arch"`
	TimestampUTC string `json:"timestamp_utc"`
}

// CurrentEnv describes the running toolchain/platform at the current time.
func CurrentEnv() *ReportEnv {
	return &ReportEnv{
		GoVersion:    runtime.Version(),
		OSArch:       runtime.GOOS + "/" + runtime.GOARCH,
		TimestampUTC: time.Now().UTC().Format(time.RFC3339),
	}
}

// String renders the block for log lines; a nil receiver (pre-stamping
// report) says so instead of crashing.
func (e *ReportEnv) String() string {
	if e == nil {
		return "(env unrecorded)"
	}
	return fmt.Sprintf("%s %s @ %s", e.GoVersion, e.OSArch, e.TimestampUTC)
}

// LoadReport reads a bench report JSON file.
func LoadReport(path string) (*Report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	var r Report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("bench: parsing %s: %w", path, err)
	}
	if r.RecordsPerSec <= 0 {
		return nil, fmt.Errorf("bench: %s has no records_per_sec", path)
	}
	return &r, nil
}

// WriteFile writes the report as indented JSON, stamping the derived
// ratio and the measurement environment.
func (r *Report) WriteFile(path string) error {
	r.StreamVsMaterialized = r.Ratio()
	r.Env = CurrentEnv()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Ratio returns the streamed-to-materialized throughput ratio, the tracked
// measure of what chunked decode costs the replay pipeline on this host
// (the decode pool hides it only when a spare core exists). Zero when either
// throughput is missing.
func (r *Report) Ratio() float64 {
	if r.RecordsPerSec <= 0 || r.StreamRecordsPerSec <= 0 {
		return 0
	}
	return r.StreamRecordsPerSec / r.RecordsPerSec
}

// normProcs returns the divisor used to compare throughput across hosts
// with different core counts.
func (r *Report) normProcs() float64 {
	if r.GOMAXPROCS <= 0 {
		return 1
	}
	return float64(r.GOMAXPROCS)
}

// CompareOptions tunes CompareReports.
type CompareOptions struct {
	// WarnFrac and FailFrac bound the tolerated fractional throughput
	// drop: beyond WarnFrac (e.g. 0.10) a warning, beyond FailFrac (e.g.
	// 0.20) an error. Improvements never fail.
	WarnFrac, FailFrac float64
	// RatioWarnFrac and RatioFailFrac separately guard the streamed-to-
	// materialized throughput ratio (Report.Ratio): both absolute
	// throughputs can pass while the streamed path quietly loses ground on
	// the materialized one, so the ratio gets its own thresholds — a
	// fractional drop beyond RatioWarnFrac warns, beyond RatioFailFrac
	// fails. Zero disables either.
	RatioWarnFrac, RatioFailFrac float64
	// MinRatio is an absolute floor on the fresh report's ratio: with the
	// pipelined decoder the streamed path should at least match the
	// materialized one (ratio >= 1.0) wherever a spare core exists. Hosts
	// without one (single-core CI runners, laptops on battery) cannot meet
	// that regardless of code quality — set 0 there to disable the floor
	// (kindle-benchdiff -min-ratio 0). Zero disables.
	MinRatio float64
	// NormalizeEnv permits comparing reports recorded under different
	// gomaxprocs or suite_scale. Without it such comparisons are refused:
	// per-proc normalization is a coarse correction (the replay itself is
	// single-threaded) and suite wall-clock at different scales measures
	// different work, so crossing environments must be an explicit choice.
	NormalizeEnv bool
}

// CompareReports gates fresh against base. Reports from identical
// environments compare raw; differing gomaxprocs or suite_scale is refused
// unless opt.NormalizeEnv, which normalizes throughput per gomaxprocs and
// says so in a warning.
func CompareReports(base, fresh *Report, opt CompareOptions) (warnings []string, err error) {
	if base.GOMAXPROCS != fresh.GOMAXPROCS || base.SuiteScale != fresh.SuiteScale ||
		base.Shards != fresh.Shards || base.DecodeWorkers != fresh.DecodeWorkers {
		desc := fmt.Sprintf("gomaxprocs %d vs %d, suite_scale %g vs %g, shards %d vs %d, decode_workers %d vs %d; base %s, fresh %s",
			base.GOMAXPROCS, fresh.GOMAXPROCS, base.SuiteScale, fresh.SuiteScale,
			base.Shards, fresh.Shards, base.DecodeWorkers, fresh.DecodeWorkers,
			base.Env, fresh.Env)
		if !opt.NormalizeEnv {
			return nil, fmt.Errorf("bench: reports measured in different environments (%s); rerun with env normalization enabled (-normalize-env) to compare per-proc throughput anyway", desc)
		}
		warnings = append(warnings, fmt.Sprintf(
			"environments differ (%s): comparing throughput per gomaxprocs", desc))
	}
	type metric struct {
		name       string
		base, have float64
	}
	metrics := []metric{
		{"records_per_sec", base.RecordsPerSec / base.normProcs(), fresh.RecordsPerSec / fresh.normProcs()},
	}
	if base.StreamRecordsPerSec > 0 && fresh.StreamRecordsPerSec > 0 {
		metrics = append(metrics, metric{
			"stream_records_per_sec",
			base.StreamRecordsPerSec / base.normProcs(),
			fresh.StreamRecordsPerSec / fresh.normProcs(),
		})
	}
	if base.ShardedRecordsPerSec > 0 && fresh.ShardedRecordsPerSec > 0 {
		metrics = append(metrics, metric{
			"sharded_records_per_sec",
			base.ShardedRecordsPerSec / base.normProcs(),
			fresh.ShardedRecordsPerSec / fresh.normProcs(),
		})
	}
	var failures []string
	for _, m := range metrics {
		if m.base <= 0 {
			continue
		}
		drop := (m.base - m.have) / m.base
		line := fmt.Sprintf("%s: base %.0f/proc, fresh %.0f/proc (%+.1f%%)",
			m.name, m.base, m.have, -100*drop)
		switch {
		case drop > opt.FailFrac:
			failures = append(failures, line)
		case drop > opt.WarnFrac:
			warnings = append(warnings, line)
		}
	}
	// The ratio is recomputed from the throughputs, never read from the
	// stored stream_vs_materialized field.
	if rb, rf := base.Ratio(), fresh.Ratio(); rb > 0 && rf > 0 {
		drop := (rb - rf) / rb
		line := fmt.Sprintf(
			"stream_vs_materialized: base %.2f, fresh %.2f (%+.1f%%) — streamed decode losing ground on materialized replay",
			rb, rf, -100*drop)
		switch {
		case opt.RatioFailFrac > 0 && drop > opt.RatioFailFrac:
			failures = append(failures, line)
		case opt.RatioWarnFrac > 0 && drop > opt.RatioWarnFrac:
			warnings = append(warnings, line)
		}
	}
	if rf := fresh.Ratio(); opt.MinRatio > 0 && rf > 0 && rf < opt.MinRatio {
		failures = append(failures, fmt.Sprintf(
			"stream_vs_materialized: fresh %.2f below floor %.2f — pipelined decode should keep the streamed path at parity where a spare core exists (disable on constrained hosts with -min-ratio 0)",
			rf, opt.MinRatio))
	}
	if len(failures) > 0 {
		return warnings, fmt.Errorf("bench regression beyond %.0f%%:\n  %s",
			100*opt.FailFrac, joinLines(failures))
	}
	return warnings, nil
}

func joinLines(lines []string) string {
	out := ""
	for i, l := range lines {
		if i > 0 {
			out += "\n  "
		}
		out += l
	}
	return out
}
