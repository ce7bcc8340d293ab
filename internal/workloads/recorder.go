// Package workloads implements the applications of the paper's Table II —
// Gapbs_pr (GAP PageRank), G500_sssp (Graph500 single-source shortest
// paths) and Ycsb_mem (YCSB-style in-memory key-value store) — as
// *instrumented* Go programs: every load and store they perform on their
// data structures (and their stack activity, which Pin would also capture)
// is recorded as a trace tuple. It also provides the micro-benchmarks used
// by the process-persistence experiments (Fig. 4, Tables III/IV).
package workloads

import (
	"fmt"

	"kindle/internal/trace"
)

// SinkOpenFunc opens a streaming destination for a recorder once the trace
// header (benchmark name and area table) is known. The recorder calls it
// lazily at the first recorded access — every Kindle workload registers all
// of its areas before touching memory, so the header is complete by then.
type SinkOpenFunc func(benchmark string, areas []trace.Area) (trace.RecordSink, error)

// Recorder captures memory accesses into a trace image. It plays the role
// of Pin in the paper's preparation component: the workload "executes" and
// the recorder observes its loads/stores with (period, offset, op, size,
// area) fidelity. With StreamTo, records flow straight to a RecordSink
// (e.g. a v2 StreamWriter on disk) instead of accumulating in memory.
type Recorder struct {
	img    trace.Image
	period uint64
	limit  int // stop recording past this many records (0 = unlimited)
	paused bool

	sinkOpen SinkOpenFunc
	sink     trace.RecordSink
	sinkErr  error
	count    int
}

// NewRecorder starts a trace for the named benchmark. limit caps the
// record count (the paper traces 10,000,000 operations per benchmark) and
// sizes the record array: a materialized recorder allocates it once, at
// limit records, when it records its first access. Every workload records
// until Full, so the array is never re-grown or left over-sized; with
// limit 0 (unlimited) it grows by appending.
func NewRecorder(benchmark string, limit int) *Recorder {
	return &Recorder{img: trace.Image{Benchmark: benchmark}, limit: limit}
}

// StreamTo switches the recorder to streaming capture: instead of
// materializing records, each access is written to the sink that open
// returns. Must be called before the first access is recorded; a nil open
// is a no-op (materialized capture). The caller owns the opened sink's
// lifetime (the recorder never closes it); check SinkErr after the run.
func (r *Recorder) StreamTo(open SinkOpenFunc) { r.sinkOpen = open }

// SinkErr returns the first error the streaming sink reported, if any.
func (r *Recorder) SinkErr() error { return r.sinkErr }

// AddArea registers a memory area and returns its index.
func (r *Recorder) AddArea(name string, size uint64, nvm, write bool) int {
	size = (size + 4095) &^ 4095
	r.img.Areas = append(r.img.Areas, trace.Area{Name: name, Size: size, NVM: nvm, Write: write})
	return len(r.img.Areas) - 1
}

// Full reports whether the record limit has been reached (or streaming
// failed, which also stops recording).
func (r *Recorder) Full() bool {
	if r.sinkErr != nil {
		return true
	}
	return r.limit > 0 && r.count >= r.limit
}

// Tick advances logical time without recording (models non-memory
// instructions between accesses).
func (r *Recorder) Tick(n uint64) { r.period += n }

// Pause suspends recording: the workload keeps executing but its accesses
// are not traced. The preparation methodology uses this to skip
// initialization phases and trace only the region of interest, as Pin
// harnesses conventionally do.
func (r *Recorder) Pause() { r.paused = true }

// Resume re-enables recording after Pause.
func (r *Recorder) Resume() { r.paused = false }

func (r *Recorder) record(area int, off uint64, op trace.Op, size uint32) {
	if r.paused || r.Full() {
		return
	}
	r.period++
	// An area index past 16 bits is cut here, but only in a table of more
	// than 65,536 areas: Image refuses it, and ValidateHeader stops a
	// stream before its sink opens.
	rec := trace.Record{
		Period: r.period,
		Offset: off,
		Size:   size,
		Area:   uint16(area),
		Op:     op,
	}
	if r.sinkOpen != nil {
		if r.sink == nil {
			if r.sinkErr = trace.ValidateHeader(r.img.Benchmark, r.img.Areas); r.sinkErr == nil {
				r.sink, r.sinkErr = r.sinkOpen(r.img.Benchmark, r.img.Areas)
			}
			if r.sinkErr != nil {
				r.sinkOpen = nil
				return
			}
		}
		if err := r.sink.Write(rec); err != nil {
			r.sinkErr = err
			return
		}
		r.count++
		return
	}
	if r.img.Records == nil {
		r.img.Records = make([]trace.Record, 0, r.limit)
	}
	r.img.Records = append(r.img.Records, rec)
	r.count++
}

// Load records a read of size bytes at off in area.
func (r *Recorder) Load(area int, off uint64, size uint32) { r.record(area, off, trace.Read, size) }

// Store records a write of size bytes at off in area.
func (r *Recorder) Store(area int, off uint64, size uint32) { r.record(area, off, trace.Write, size) }

// Frame models the stack traffic of a function call: n spill stores on
// entry and n reloads on exit, within the stack area. Pin traces these too;
// they are a real part of the Table II read/write mixes.
func (r *Recorder) Frame(stackArea int, depth uint64, n int) {
	base := depth * 256 % (r.img.Areas[stackArea].Size - 256)
	for i := 0; i < n; i++ {
		r.Store(stackArea, base+uint64(i*8), 8)
	}
	for i := 0; i < n; i++ {
		r.Load(stackArea, base+uint64(i*8), 8)
	}
}

// Image finalizes and returns the trace. In streaming mode the records
// already live in the sink, so the returned image carries the header
// (benchmark, areas) with no records; SinkErr failures surface here.
func (r *Recorder) Image() (*trace.Image, error) {
	if r.sinkErr != nil {
		return nil, fmt.Errorf("workloads: streaming capture: %w", r.sinkErr)
	}
	if err := r.img.Validate(); err != nil {
		return nil, fmt.Errorf("workloads: %w", err)
	}
	return &r.img, nil
}

// MustImage is Image for construction paths that cannot fail.
func (r *Recorder) MustImage() *trace.Image {
	img, err := r.Image()
	if err != nil {
		panic(err)
	}
	return img
}
