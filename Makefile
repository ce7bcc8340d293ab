GO ?= go

.PHONY: all build test check fmt vet lint race evalgolden cpusweep bench benchsmoke perfbenchsmoke crashsweep fuzzsmoke allocguard monitorsmoke clismoke profile

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# check is the pre-commit gate: formatting, vet, the full test suite under
# the race detector (which includes the golden stats dumps of the
# long-horizon checkpoint lifecycle and the 32-tenant traffic run), the
# paper-evaluation golden and the zero-allocation guards (which the race
# build must skip, hence their separate non-race runs), the
# concurrency-sensitive packages at several GOMAXPROCS values, a
# one-iteration pass over every benchmark so the perf harness can't
# silently rot, a build-and-smoke of the perfbench module, two bounded
# commit-point crash sweeps, a short fuzz of the trace decoders and
# writer, the NVM pending store, the NVM write buffer, the run loop, the
# cache level and the TLB, the live-monitor smoke
# (real kindle binary scraped over HTTP mid-run in replay, resume, traffic
# and sharded mode), and the CLI checks (kindle's refusal table unit-tested
# on parseFlags, plus the real-binary identity matrix: -shards 1 vs 4, cold
# vs snapshot capture vs resumes with and without an idle tail, a seeded
# traffic spec run twice and with the interval dumper and tracer attached,
# and one refused command line).
check: fmt vet race evalgolden allocguard cpusweep benchsmoke perfbenchsmoke crashsweep fuzzsmoke monitorsmoke clismoke

# evalgolden runs the whole paper evaluation at scale 0.125 and compares its
# report and CSV with testdata/golden/eval_0125.{txt,csv} (see
# golden_test.go). It takes about 10 s plain but over a minute under the
# race detector, so the race build skips it and this target runs it.
evalgolden:
	$(GO) test -count=1 -run TestGoldenEvaluation .

# allocguard pins the replay step's zero-allocation steady state, the
# recycling of decode state across reopened streams and chunk ranges
# (TestStreamReopenZeroAlloc, TestRangeReopenZeroAlloc: every warm cycle
# within a few KiB) and of cache and TLB storage across sharded segments
# (TestShardedReplayZeroAlloc: at most 112 KiB per warm segment), and the
# cost of a warm machine boot (TestBootZeroAlloc: at most 150 allocations,
# most of them the stats registry's); see allocguard_test.go. It needs a
# non-race build because race instrumentation changes allocation counts.
allocguard:
	$(GO) test -run ZeroAlloc .

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

# cpusweep reruns the packages whose behaviour depends on GOMAXPROCS (the
# decode pool's default worker count, sharded and streamed replay) and the
# zero-allocation guards at several CPU counts, so no test can pass only
# because of the host's core count.
cpusweep:
	$(GO) test -count=1 -cpu 1,2,8 ./internal/trace ./internal/core ./internal/prep
	$(GO) test -count=1 -cpu 1,2 -run ZeroAlloc .

benchsmoke:
	$(GO) test -bench . -benchtime 1x -run XXX ./...

# perfbenchsmoke builds and tests the perfbench module (the repository
# benchmark behind BENCHMARK.json). It is a separate module outside the root
# ./..., so without this target an API change that breaks it would only
# surface when the benchmark runs.
perfbenchsmoke:
	$(GO) -C perfbench test ./...

# crashsweep replays the workload with a power failure injected at NVM
# commit-point granularity, at two bounded scales (see EXPERIMENTS.md).
# -check fails the build if any injection point violates the recovery
# invariants.
crashsweep:
	$(GO) run ./cmd/kindle-bench -experiment crash-sweep -scale 0.0625 -check
	$(GO) run ./cmd/kindle-bench -experiment crash-sweep -scale 0.25 -check

# fuzzsmoke runs the checked-in corpus plus 10 seconds of new coverage over
# each fuzz target: the v1/v2 binary decoders checked against the
# sequential reference, the chunk-index scan plus range decode (see
# internal/trace/fuzz_test.go), the chunk DEFLATE decoder checked against
# compress/flate on arbitrary payloads and raw lengths (see
# internal/trace/inflate_ref_test.go), the ring-buffered v2 writer checked
# against the serial writer it replaced, byte for byte and under a failing
# io.Writer (see internal/trace/writer_ref_test.go), the NVM pending store and its word path
# checked against its map-based reference (see
# internal/mem/persist_fuzz_test.go), the FIFO-only NVM write buffer
# checked against the map-keyed buffer it replaced at depths 1 to 192 (see
# internal/mem/nvm_fuzz_test.go), the run loop checked against the stepped
# reference (see
# internal/machine/runloop_test.go), the recency-ordered cache level
# checked against the timestamp-LRU reference (see
# internal/cache/level_ref_test.go), and the pooled TLB checked against the
# stamp-LRU TLB it replaced (see internal/tlb/tlb_ref_test.go). go test
# fuzzes one target per run.
fuzzsmoke:
	$(GO) test -run XXX -fuzz '^FuzzDecode$$' -fuzztime 10s ./internal/trace
	$(GO) test -run XXX -fuzz '^FuzzChunkIndex$$' -fuzztime 10s ./internal/trace
	$(GO) test -run XXX -fuzz '^FuzzInflate$$' -fuzztime 10s ./internal/trace
	$(GO) test -run XXX -fuzz '^FuzzStreamWriter$$' -fuzztime 10s ./internal/trace
	$(GO) test -run XXX -fuzz '^FuzzPersistDomain$$' -fuzztime 10s ./internal/mem
	$(GO) test -run XXX -fuzz '^FuzzNVMWriteBuffer$$' -fuzztime 10s ./internal/mem
	$(GO) test -run XXX -fuzz '^FuzzRunUntil$$' -fuzztime 10s ./internal/machine
	$(GO) test -run XXX -fuzz '^FuzzCacheLevel$$' -fuzztime 10s ./internal/cache
	$(GO) test -run XXX -fuzz '^FuzzTLB$$' -fuzztime 10s ./internal/tlb

# monitorsmoke builds the real kindle binary, runs it with -monitor in
# every mode (replay, -snapshot-in, -traffic, -shards), and asserts over
# HTTP that /metrics parses as Prometheus text exposition, /progress
# reaches 100%, and the single-machine modes serve /events (see
# monitor_smoke_test.go).
monitorsmoke:
	$(GO) test -run TestMonitorSmoke .

# clismoke unit-tests kindle's flag parsing (every refused command line and
# every newly composable cell, see cmd/kindle/flags_test.go), then builds
# the real kindle binary once and runs the identity matrix: each row's
# baseline and variants must write byte-identical stats dumps (-shards 1 vs
# -shards 4; cold vs -snapshot-out vs two -snapshot-in resumes, and the
# same with an -idle-after tail; a seeded traffic spec run twice, and with
# -stats-interval and -trace-out, whose totals block must match), and a
# refused command line must exit non-zero (see cli_identity_test.go).
clismoke:
	$(GO) test ./cmd/kindle
	$(GO) test -run TestCLIIdentity .

# lint runs staticcheck when it is installed (CI installs a pinned version;
# see .github/workflows/ci.yml) and falls back to go vet locally so the
# target never requires a network fetch.
lint:
	@if command -v staticcheck >/dev/null 2>&1; then \
		echo "staticcheck ./..."; staticcheck ./...; \
	else \
		echo "staticcheck not installed; falling back to go vet"; \
		$(GO) vet ./...; \
	fi

# profile records CPU and allocation profiles for both replay benchmarks,
# for v2 trace decode (the decode pool and the range decoder of sharded
# replay), for a rebuild-scheme checkpoint at persist-churn's 32,768 mapped
# NVM pages, for persist-churn's mmap/touch/munmap loop and for trace
# preparation (the v2 writer plus the R-MAT generator, merged into one
# prep profile) under profiles/ (gitignored). See "Recipe: profiling the
# replay engine" in EXPERIMENTS.md for how to read them.
profile:
	mkdir -p profiles
	$(GO) test -run XXX -bench '^BenchmarkReplayThroughput$$' -benchtime 2s \
		-cpuprofile profiles/replay_cpu.prof -memprofile profiles/replay_mem.prof -o profiles/kindle.test .
	$(GO) test -run XXX -bench '^BenchmarkStreamReplayThroughput$$' -benchtime 2s \
		-cpuprofile profiles/stream_cpu.prof -memprofile profiles/stream_mem.prof -o profiles/kindle.test .
	$(GO) test -run XXX -bench '^BenchmarkV2Decode$$' -benchtime 2s \
		-cpuprofile profiles/decode_cpu.prof -memprofile profiles/decode_mem.prof -o profiles/trace.test ./internal/trace
	$(GO) test -run XXX -bench '^BenchmarkCheckpointSteadyState$$/^pages=32768$$' -benchtime 2s \
		-cpuprofile profiles/checkpoint_cpu.prof -memprofile profiles/checkpoint_mem.prof -o profiles/persist.test ./internal/persist
	$(GO) test -run XXX -bench '^BenchmarkChurnTouch$$' -benchtime 2s \
		-cpuprofile profiles/churn_cpu.prof -memprofile profiles/churn_mem.prof -o profiles/persist.test ./internal/persist
	$(GO) test -run XXX -bench '^BenchmarkV2Encode$$' -benchtime 2s \
		-cpuprofile profiles/encode_cpu.prof -memprofile profiles/encode_mem.prof -o profiles/trace.test ./internal/trace
	$(GO) test -run XXX -bench '^BenchmarkGenRMAT$$' -benchtime 2s \
		-cpuprofile profiles/rmat_cpu.prof -memprofile profiles/rmat_mem.prof -o profiles/workloads.test ./internal/workloads
	$(GO) tool pprof -proto profiles/encode_cpu.prof profiles/rmat_cpu.prof > profiles/prep_cpu.prof
	$(GO) tool pprof -proto profiles/encode_mem.prof profiles/rmat_mem.prof > profiles/prep_mem.prof
	@echo "wrote profiles/{replay,stream,decode,checkpoint,churn,prep}_{cpu,mem}.prof; try:"
	@echo "  go tool pprof -top -nodecount 20 profiles/kindle.test profiles/replay_cpu.prof"
	@echo "  go tool pprof -top -nodecount 20 profiles/trace.test profiles/decode_cpu.prof"
	@echo "  go tool pprof -top -nodecount 20 profiles/persist.test profiles/checkpoint_cpu.prof"
	@echo "  go tool pprof -top -nodecount 20 profiles/persist.test profiles/churn_cpu.prof"
	@echo "  go tool pprof -top -nodecount 20 profiles/prep_cpu.prof"

# bench runs the microbenchmarks, then records the headline numbers
# (replay records/sec, suite wall-clock, GOMAXPROCS) in BENCH_replay.json
# for cross-PR comparison.
bench:
	$(GO) test -bench . -benchmem -run XXX ./internal/mem ./internal/obs ./internal/sim
	$(GO) test -run TestWriteBenchReport -bench-report BENCH_replay.json .
