package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestReportRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	r := &Report{RecordsPerSec: 7e6, StreamRecordsPerSec: 7.2e6, SuiteWallClockSec: 8, SuiteScale: 0.0625, GOMAXPROCS: 4}
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Env == nil || got.Env.GoVersion != runtime.Version() ||
		got.Env.OSArch != runtime.GOOS+"/"+runtime.GOARCH {
		t.Fatalf("WriteFile did not stamp env: %+v", got.Env)
	}
	if ts, err := time.Parse(time.RFC3339, got.Env.TimestampUTC); err != nil || ts.Location() != time.UTC {
		t.Fatalf("env timestamp %q not RFC3339 UTC: %v", got.Env.TimestampUTC, err)
	}
	got.Env, r.Env = nil, nil
	if *got != *r {
		t.Fatalf("round trip: got %+v want %+v", got, r)
	}

	// A baseline recorded before a key was retired (event_clock_speedup)
	// still loads: unknown keys are ignored.
	legacy := filepath.Join(dir, "legacy.json")
	if err := os.WriteFile(legacy, []byte(`{"records_per_sec": 7e6, "event_clock_speedup": 2.7, "suite_scale": 0.0625}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadReport(legacy); err != nil || got.RecordsPerSec != 7e6 || got.SuiteScale != 0.0625 {
		t.Fatalf("legacy baseline: got %+v, err %v", got, err)
	}
}

// TestReportEnvString: pre-stamping reports (nil env) print a placeholder
// instead of crashing kindle-benchdiff.
func TestReportEnvString(t *testing.T) {
	var e *ReportEnv
	if e.String() != "(env unrecorded)" {
		t.Fatalf("nil env String = %q", e.String())
	}
	s := (&ReportEnv{GoVersion: "go1.24.0", OSArch: "linux/amd64", TimestampUTC: "2026-08-09T00:00:00Z"}).String()
	for _, want := range []string{"go1.24.0", "linux/amd64", "2026-08-09"} {
		if !strings.Contains(s, want) {
			t.Fatalf("env String %q missing %q", s, want)
		}
	}
}

func TestLoadReportRejectsBad(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"garbage.json": "not json",
		"empty.json":   "{}",
		"zero.json":    `{"records_per_sec": 0}`,
	} {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadReport(path); err == nil {
			t.Errorf("%s: LoadReport accepted bad input", name)
		}
	}
	if _, err := LoadReport(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("LoadReport accepted missing file")
	}
}

func TestCompareReports(t *testing.T) {
	base := &Report{RecordsPerSec: 1000, StreamRecordsPerSec: 900, GOMAXPROCS: 1}
	opt := CompareOptions{WarnFrac: 0.10, FailFrac: 0.20, RatioWarnFrac: 0.10}
	normOpt := opt
	normOpt.NormalizeEnv = true
	cases := []struct {
		name     string
		fresh    Report
		opt      CompareOptions
		wantWarn bool
		wantFail bool
	}{
		{"unchanged", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 900, GOMAXPROCS: 1}, opt, false, false},
		{"improved", Report{RecordsPerSec: 1500, StreamRecordsPerSec: 1400, GOMAXPROCS: 1}, opt, false, false},
		{"small drop", Report{RecordsPerSec: 950, StreamRecordsPerSec: 870, GOMAXPROCS: 1}, opt, false, false},
		{"warn drop", Report{RecordsPerSec: 850, StreamRecordsPerSec: 900, GOMAXPROCS: 1}, opt, true, false},
		{"fail drop", Report{RecordsPerSec: 700, StreamRecordsPerSec: 900, GOMAXPROCS: 1}, opt, false, true},
		// The collapsed stream throughput fails outright and also trips
		// the ratio warning.
		{"stream fail", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 600, GOMAXPROCS: 1}, opt, true, true},
		// Both throughputs inside tolerance, but the streamed one slipped
		// 11% against the materialized one: ratio warning only.
		{"ratio warn", Report{RecordsPerSec: 1050, StreamRecordsPerSec: 840, GOMAXPROCS: 1}, opt, true, false},
		// Same ratio slip with the ratio guard disabled stays silent.
		{"ratio guard off", Report{RecordsPerSec: 1050, StreamRecordsPerSec: 840, GOMAXPROCS: 1},
			CompareOptions{WarnFrac: 0.10, FailFrac: 0.20}, false, false},
		// Differing environments are refused outright...
		{"env refused", Report{RecordsPerSec: 4000, StreamRecordsPerSec: 3600, GOMAXPROCS: 4}, opt, false, true},
		// ...and compare per-proc (with an explanatory warning) when
		// normalization is requested: 4000 rec/s on 4 procs is 1000/proc.
		{"normalized", Report{RecordsPerSec: 4000, StreamRecordsPerSec: 3600, GOMAXPROCS: 4}, normOpt, true, false},
		// 2000 rec/s on 4 procs is 500/proc — a 50% normalized drop.
		{"normalized fail", Report{RecordsPerSec: 2000, StreamRecordsPerSec: 3600, GOMAXPROCS: 4}, normOpt, true, true},
		// Baseline without a stream metric skips stream and ratio checks.
		{"no stream metric", Report{RecordsPerSec: 1000, GOMAXPROCS: 1}, opt, false, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warnings, err := CompareReports(base, &tc.fresh, tc.opt)
			if tc.wantFail != (err != nil) {
				t.Fatalf("err = %v, wantFail = %v", err, tc.wantFail)
			}
			if tc.wantFail && !strings.Contains(err.Error(), "regression") && !strings.Contains(err.Error(), "environments") {
				t.Fatalf("error does not explain itself: %v", err)
			}
			if tc.wantWarn != (len(warnings) > 0) {
				t.Fatalf("warnings = %v, wantWarn = %v", warnings, tc.wantWarn)
			}
		})
	}
}

// TestCompareReportsRatioGate pins the promoted ratio gate: a ratio drop
// beyond RatioFailFrac or a fresh ratio under the MinRatio floor is an
// error, not a warning, and the floor is independently disabled by zero.
func TestCompareReportsRatioGate(t *testing.T) {
	base := &Report{RecordsPerSec: 1000, StreamRecordsPerSec: 1100, GOMAXPROCS: 1}
	gate := CompareOptions{WarnFrac: 0.10, FailFrac: 0.20, RatioWarnFrac: 0.05, RatioFailFrac: 0.10, MinRatio: 1.0}
	cases := []struct {
		name     string
		fresh    Report
		opt      CompareOptions
		wantWarn bool
		wantFail bool
	}{
		{"ratio holds", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 1100, GOMAXPROCS: 1}, gate, false, false},
		// Ratio slips 8%: past RatioWarnFrac, inside RatioFailFrac, still
		// above the floor (1.10 -> 1.01) — warning only.
		{"ratio warn band", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 1012, GOMAXPROCS: 1}, gate, true, false},
		// Ratio collapses 18% and lands under the 1.0 floor — both failure
		// paths fire (the stream throughput drop also warns on its own).
		{"ratio fail", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 900, GOMAXPROCS: 1}, gate, true, true},
		// Floor alone: ratio drop below RatioFailFrac but fresh ratio 0.99.
		{"floor fail", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 990, GOMAXPROCS: 1},
			CompareOptions{WarnFrac: 0.10, FailFrac: 0.20, RatioFailFrac: 0.15, MinRatio: 1.0}, false, true},
		// Constrained-host override: MinRatio 0 disables the floor and the
		// same report passes with only the ratio-drop warning.
		{"floor disabled", Report{RecordsPerSec: 1000, StreamRecordsPerSec: 990, GOMAXPROCS: 1},
			CompareOptions{WarnFrac: 0.10, FailFrac: 0.20, RatioWarnFrac: 0.05, MinRatio: 0}, true, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			warnings, err := CompareReports(base, &tc.fresh, tc.opt)
			if tc.wantFail != (err != nil) {
				t.Fatalf("err = %v, wantFail = %v", err, tc.wantFail)
			}
			if tc.wantWarn != (len(warnings) > 0) {
				t.Fatalf("warnings = %v, wantWarn = %v", warnings, tc.wantWarn)
			}
		})
	}
}

// TestCompareReportsShardedMetric: the sharded throughput is gated like the
// others when both reports carry it, and skipped when either lacks it.
func TestCompareReportsShardedMetric(t *testing.T) {
	opt := CompareOptions{WarnFrac: 0.10, FailFrac: 0.20}
	base := &Report{RecordsPerSec: 1000, ShardedRecordsPerSec: 2000, Shards: 4, GOMAXPROCS: 1}
	bad := &Report{RecordsPerSec: 1000, ShardedRecordsPerSec: 1400, Shards: 4, GOMAXPROCS: 1}
	if _, err := CompareReports(base, bad, opt); err == nil {
		t.Fatal("30% sharded throughput drop passed the gate")
	}
	missing := &Report{RecordsPerSec: 1000, GOMAXPROCS: 1, Shards: 4}
	if _, err := CompareReports(base, missing, opt); err != nil {
		t.Fatalf("report without sharded metric should skip that gate: %v", err)
	}
}

// TestCompareReportsRefusesShardMismatch: shards and decode_workers are
// environment knobs — reports measured at different values are refused
// without -normalize-env, like gomaxprocs.
func TestCompareReportsRefusesShardMismatch(t *testing.T) {
	opt := CompareOptions{WarnFrac: 0.10, FailFrac: 0.20}
	base := &Report{RecordsPerSec: 1000, Shards: 4, DecodeWorkers: 4, GOMAXPROCS: 1}
	for _, tc := range []struct {
		name  string
		fresh Report
	}{
		{"shards differ", Report{RecordsPerSec: 1000, Shards: 8, DecodeWorkers: 4, GOMAXPROCS: 1}},
		{"decode workers differ", Report{RecordsPerSec: 1000, Shards: 4, DecodeWorkers: 2, GOMAXPROCS: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := CompareReports(base, &tc.fresh, opt); err == nil {
				t.Fatal("cross-shard-count comparison accepted without NormalizeEnv")
			}
			norm := opt
			norm.NormalizeEnv = true
			warnings, err := CompareReports(base, &tc.fresh, norm)
			if err != nil {
				t.Fatalf("NormalizeEnv comparison failed: %v", err)
			}
			if len(warnings) == 0 {
				t.Fatal("normalized comparison produced no explanatory warning")
			}
		})
	}
}

// TestCompareReportsIgnoresRetiredForkKey: baselines recorded while the
// suite could warm-fork its grid cells carry "fork": true. Every cell now
// boots cold, so the key describes nothing a fresh report can differ in:
// such a baseline must gate a fresh report (which has no fork key) without
// -normalize-env.
func TestCompareReportsIgnoresRetiredForkKey(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "base.json")
	if err := os.WriteFile(basePath, []byte(`{"records_per_sec": 7e6, "stream_records_per_sec": 5e6, "sharded_records_per_sec": 4e6, "shards": 4, "decode_workers": 2, "fork_speedup": 7.5, "suite_wall_clock_sec": 4.3, "suite_scale": 0.0625, "fork": true, "gomaxprocs": 2}`), 0o644); err != nil {
		t.Fatal(err)
	}
	base, err := LoadReport(basePath)
	if err != nil {
		t.Fatal(err)
	}
	freshPath := filepath.Join(dir, "fresh.json")
	r := &Report{RecordsPerSec: 7e6, StreamRecordsPerSec: 5e6, ShardedRecordsPerSec: 4e6,
		Shards: 4, DecodeWorkers: 2, SuiteWallClockSec: 4.3, SuiteScale: 0.0625, GOMAXPROCS: 2}
	if err := r.WriteFile(freshPath); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"fork"`) {
		t.Fatalf("fresh report carries a fork key:\n%s", data)
	}
	fresh, err := LoadReport(freshPath)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompareReports(base, fresh, CompareOptions{WarnFrac: 0.10, FailFrac: 0.20}); err != nil {
		t.Fatalf("baseline with a fork key refused: %v", err)
	}
}

func TestCompareReportsRefusesScaleMismatch(t *testing.T) {
	base := &Report{RecordsPerSec: 1000, SuiteScale: 1.0 / 16, GOMAXPROCS: 1}
	fresh := &Report{RecordsPerSec: 1000, SuiteScale: 1.0 / 4, GOMAXPROCS: 1}
	if _, err := CompareReports(base, fresh, CompareOptions{WarnFrac: 0.10, FailFrac: 0.20}); err == nil {
		t.Fatal("suite_scale mismatch accepted without NormalizeEnv")
	}
	warnings, err := CompareReports(base, fresh, CompareOptions{WarnFrac: 0.10, FailFrac: 0.20, NormalizeEnv: true})
	if err != nil {
		t.Fatalf("NormalizeEnv comparison failed: %v", err)
	}
	if len(warnings) == 0 {
		t.Fatal("normalized cross-environment comparison produced no explanatory warning")
	}
}
