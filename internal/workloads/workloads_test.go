package workloads

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kindle/internal/trace"
)

func TestGraphGenerators(t *testing.T) {
	g := GenRMAT(1024, 8, 1)
	if g.N != 1024 || len(g.Edges) != 1024*8 {
		t.Fatalf("RMAT size: %d vertices %d edges", g.N, len(g.Edges))
	}
	if g.Offsets[g.N] != uint64(len(g.Edges)) {
		t.Fatal("CSR offsets inconsistent")
	}
	for v := 0; v < g.N; v++ {
		if g.Offsets[v] > g.Offsets[v+1] {
			t.Fatal("offsets not monotone")
		}
	}
	for _, e := range g.Edges {
		if int(e) >= g.N {
			t.Fatal("edge out of range")
		}
	}
	// Determinism.
	g2 := GenRMAT(1024, 8, 1)
	for i := range g.Edges {
		if g.Edges[i] != g2.Edges[i] {
			t.Fatal("RMAT not deterministic")
		}
	}
	// Skew: max degree must far exceed average.
	maxDeg := 0
	for v := 0; v < g.N; v++ {
		if d := g.Degree(v); d > maxDeg {
			maxDeg = d
		}
	}
	if maxDeg < 8*4 {
		t.Fatalf("RMAT max degree %d not skewed", maxDeg)
	}
	u := GenUniform(512, 4, 2)
	if u.Offsets[u.N] != uint64(len(u.Edges)) {
		t.Fatal("uniform CSR inconsistent")
	}
}

func checkMix(t *testing.T, img *trace.Image, wantRead float64) {
	t.Helper()
	r, w := img.Mix()
	if math.Abs(r-wantRead) > 2.0 {
		t.Fatalf("%s mix = %.1f/%.1f, want %.0f/%.0f (±2)", img.Benchmark, r, w, wantRead, 100-wantRead)
	}
}

func TestPageRankMixMatchesTableII(t *testing.T) {
	img, err := PageRank(SmallPageRank())
	if err != nil {
		t.Fatal(err)
	}
	if len(img.Records) != SmallPageRank().Ops {
		t.Fatalf("records = %d", len(img.Records))
	}
	checkMix(t, img, 77)
}

func TestSSSPMixMatchesTableII(t *testing.T) {
	img, err := SSSP(SmallSSSP())
	if err != nil {
		t.Fatal(err)
	}
	checkMix(t, img, 68)
}

func TestYCSBMixMatchesTableII(t *testing.T) {
	img, err := YCSB(SmallYCSB())
	if err != nil {
		t.Fatal(err)
	}
	checkMix(t, img, 71)
}

func TestWorkloadAreasAreNVMHeapPlusDRAMStack(t *testing.T) {
	img, err := PageRank(SmallPageRank())
	if err != nil {
		t.Fatal(err)
	}
	heap, stack := 0, 0
	for _, a := range img.Areas {
		if a.NVM {
			heap++
		} else {
			stack++
		}
	}
	if heap == 0 || stack == 0 {
		t.Fatalf("areas heap=%d stack=%d", heap, stack)
	}
}

func TestTraceEncodeDecodeRoundTrip(t *testing.T) {
	img, err := YCSB(SmallYCSB())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmark != img.Benchmark || len(got.Records) != len(img.Records) || len(got.Areas) != len(img.Areas) {
		t.Fatal("shape mismatch after round trip")
	}
	for i := range img.Records {
		if got.Records[i] != img.Records[i] {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, got.Records[i], img.Records[i])
		}
	}
	for i := range img.Areas {
		if got.Areas[i] != img.Areas[i] {
			t.Fatalf("area %d mismatch", i)
		}
	}
}

func TestTraceValidateRejectsBadImages(t *testing.T) {
	img := &trace.Image{Benchmark: "x", Areas: []trace.Area{{Name: "a", Size: 4096}}}
	img.Records = []trace.Record{{Offset: 4090, Size: 16, Area: 0, Period: 1}}
	if img.Validate() == nil {
		t.Fatal("overrun accepted")
	}
	img.Records = []trace.Record{{Offset: 0, Size: 8, Area: 5, Period: 1}}
	if img.Validate() == nil {
		t.Fatal("bad area accepted")
	}
	img.Records = []trace.Record{{Offset: 0, Size: 0, Area: 0, Period: 1}}
	if img.Validate() == nil {
		t.Fatal("zero size accepted")
	}
	img.Records = []trace.Record{{Period: 5, Size: 8}, {Period: 3, Size: 8}}
	if img.Validate() == nil {
		t.Fatal("backwards period accepted")
	}
	if (&trace.Image{}).Validate() == nil {
		t.Fatal("empty image accepted")
	}
}

func TestTraceDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader([]byte{1, 2, 3, 4, 5, 6, 7, 8})); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := trace.Decode(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestWorkloadDeterminism(t *testing.T) {
	a, _ := YCSB(SmallYCSB())
	b, _ := YCSB(SmallYCSB())
	if len(a.Records) != len(b.Records) {
		t.Fatal("nondeterministic length")
	}
	for i := range a.Records {
		if a.Records[i] != b.Records[i] {
			t.Fatalf("record %d differs between runs", i)
		}
	}
}

func TestRecorderLimit(t *testing.T) {
	rec := NewRecorder("x", 3)
	a := rec.AddArea("a", 4096, false, true)
	for i := 0; i < 10; i++ {
		rec.Store(a, 0, 8)
	}
	img := rec.MustImage()
	if len(img.Records) != 3 {
		t.Fatalf("limit not enforced: %d", len(img.Records))
	}
	if !rec.Full() {
		t.Fatal("Full() false at limit")
	}
}

// TestRecorderRefusesTooManyAreas: a table of more areas than the 16-bit
// Record.Area can index is refused, materialized or streamed, and the sink
// never sees a record whose area index was cut.
func TestRecorderRefusesTooManyAreas(t *testing.T) {
	for _, stream := range []bool{false, true} {
		rec := NewRecorder("x", 0)
		for i := 0; i <= 1<<16; i++ {
			rec.AddArea("a", 4096, false, true)
		}
		col := &recordCollector{}
		if stream {
			rec.StreamTo(func(string, []trace.Area) (trace.RecordSink, error) { return col, nil })
		}
		rec.Store(1<<16, 0, 8)
		if _, err := rec.Image(); err == nil {
			t.Errorf("stream %v: image of %d areas accepted", stream, 1<<16+1)
		}
		if len(col.records) != 0 {
			t.Errorf("stream %v: sink received %d records", stream, len(col.records))
		}
	}
}

func TestRecorderPeriodsMonotone(t *testing.T) {
	img, _ := SSSP(SmallSSSP())
	last := uint64(0)
	for _, r := range img.Records {
		if r.Period < last {
			t.Fatal("period regressed")
		}
		last = r.Period
	}
}

func TestFootprintExceedsHSCCPool(t *testing.T) {
	// The HSCC experiments need an NVM working set much larger than the
	// 512-page (2 MiB) DRAM pool; verify paper-scale configs provide it.
	img := func() *trace.Image {
		r := NewRecorder("probe", 1)
		cfg := DefaultPageRank()
		r.AddArea("offsets", uint64(cfg.Vertices+1)*8, true, false)
		r.AddArea("edges", uint64(cfg.Vertices*cfg.Degree)*4, true, false)
		r.AddArea("rank", uint64(cfg.Vertices)*8, true, true)
		a := r.AddArea("s", 4096, false, true)
		r.Store(a, 0, 8)
		return r.MustImage()
	}()
	if img.Footprint() < 4<<20 {
		t.Fatalf("paper-scale footprint too small: %d", img.Footprint())
	}
}

func BenchmarkPageRankTraceGen(b *testing.B) {
	cfg := SmallPageRank()
	for i := 0; i < b.N; i++ {
		if _, err := PageRank(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenRMAT builds the paper-scale R-MAT graph behind Gapbs_pr.
func BenchmarkGenRMAT(b *testing.B) {
	cfg := DefaultPageRank()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		GenRMAT(cfg.Vertices, cfg.Degree, cfg.Seed)
	}
}

func BenchmarkTraceEncode(b *testing.B) {
	img, _ := YCSB(SmallYCSB())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		trace.Encode(&buf, img)
	}
}

func TestYCSBMTPerThreadStacks(t *testing.T) {
	cfg := SmallYCSBMT()
	cfg.Ops = 100_000
	img, err := YCSBMT(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stacks := 0
	for _, a := range img.Areas {
		if len(a.Name) > 5 && a.Name[:5] == "stack" {
			stacks++
		}
	}
	if stacks != cfg.Threads {
		t.Fatalf("stack areas = %d, want %d (one per thread, the SniP capture)", stacks, cfg.Threads)
	}
	checkMix(t, img, 71)
	// Interleaving: records from different thread stacks alternate in
	// bursts, never one thread monopolizing the whole trace.
	seen := map[uint16]bool{}
	for _, r := range img.Records[:20000] {
		if img.Areas[r.Area].NVM {
			continue
		}
		seen[r.Area] = true
	}
	if len(seen) < cfg.Threads {
		t.Fatalf("first window touched %d thread stacks, want %d", len(seen), cfg.Threads)
	}
}

func TestYCSBMTRejectsZeroThreads(t *testing.T) {
	cfg := SmallYCSBMT()
	cfg.Threads = 0
	if _, err := YCSBMT(cfg); err == nil {
		t.Fatal("zero threads accepted")
	}
}

// recordCollector is a RecordSink capturing what a streaming run emits.
type recordCollector struct {
	benchmark string
	areas     []trace.Area
	records   []trace.Record
}

func (c *recordCollector) Write(rec trace.Record) error {
	c.records = append(c.records, rec)
	return nil
}

// TestStreamedCaptureMatchesMaterialized runs each workload twice — once
// materializing, once streaming to a sink — and requires identical record
// sequences: streaming capture must not perturb the trace.
func TestStreamedCaptureMatchesMaterialized(t *testing.T) {
	type runner func(sink SinkOpenFunc) (*trace.Image, error)
	cases := map[string]runner{
		"ycsb": func(sink SinkOpenFunc) (*trace.Image, error) {
			cfg := SmallYCSB()
			cfg.Ops = 30_000
			cfg.Sink = sink
			return YCSB(cfg)
		},
		"pagerank": func(sink SinkOpenFunc) (*trace.Image, error) {
			cfg := SmallPageRank()
			cfg.Ops = 30_000
			cfg.Sink = sink
			return PageRank(cfg)
		},
		"sssp": func(sink SinkOpenFunc) (*trace.Image, error) {
			cfg := SmallSSSP()
			cfg.Ops = 30_000
			cfg.Sink = sink
			return SSSP(cfg)
		},
		"ycsbmt": func(sink SinkOpenFunc) (*trace.Image, error) {
			cfg := SmallYCSBMT()
			cfg.Ops = 30_000
			cfg.Sink = sink
			return YCSBMT(cfg)
		},
	}
	for name, run := range cases {
		t.Run(name, func(t *testing.T) {
			ref, err := run(nil)
			if err != nil {
				t.Fatal(err)
			}
			col := &recordCollector{}
			hdr, err := run(func(bm string, areas []trace.Area) (trace.RecordSink, error) {
				col.benchmark = bm
				col.areas = append([]trace.Area(nil), areas...)
				return col, nil
			})
			if err != nil {
				t.Fatal(err)
			}
			if len(hdr.Records) != 0 {
				t.Fatalf("streaming run materialized %d records", len(hdr.Records))
			}
			if col.benchmark != ref.Benchmark || len(col.areas) != len(ref.Areas) {
				t.Fatalf("sink header %q/%d areas, want %q/%d", col.benchmark, len(col.areas), ref.Benchmark, len(ref.Areas))
			}
			if len(col.records) != len(ref.Records) {
				t.Fatalf("streamed %d records, materialized %d", len(col.records), len(ref.Records))
			}
			for i := range ref.Records {
				if col.records[i] != ref.Records[i] {
					t.Fatalf("record %d: %+v != %+v", i, col.records[i], ref.Records[i])
				}
			}
		})
	}
}

// errorSink fails after a few writes; the recorder must stop and surface
// the error instead of recording into the void.
type errorSink struct{ left int }

func (s *errorSink) Write(trace.Record) error {
	if s.left--; s.left < 0 {
		return errSinkFull
	}
	return nil
}

var errSinkFull = errors.New("sink full")

func TestRecorderSurfacesSinkError(t *testing.T) {
	cfg := SmallYCSB()
	cfg.Ops = 10_000
	cfg.Sink = func(string, []trace.Area) (trace.RecordSink, error) {
		return &errorSink{left: 100}, nil
	}
	_, err := YCSB(cfg)
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("sink error lost: %v", err)
	}
}
