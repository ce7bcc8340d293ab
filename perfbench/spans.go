package main

import (
	"time"

	"kindle/internal/trace"
)

// Span names. Each is a benchmark-owned timer around one public call.
const (
	spanStep         = "step"          // core.Replay.Step
	spanNext         = "next"          // trace.RecordSource.Next, as the replay consumes it
	spanBufferStall  = "buffer_stall"  // trace.DecodeStats.BufferStallNs
	spanReorderStall = "reorder_stall" // trace.DecodeStats.ReorderStallNs
	spanMmap         = "mmap"          // gemos.Kernel.Mmap
	spanMunmap       = "munmap"        // gemos.Kernel.Munmap
	spanTouch        = "touch"         // cpu.Core.Access in the churn loops
	spanTick         = "tick"          // gemos.Kernel.Tick in the churn loops
	spanIdle         = "idle"          // core.Framework.RunIdle
	spanCheckpoint   = "checkpoint"    // persist.Manager.Checkpoint
	spanRecover      = "recover"       // core.Framework.Recover
	spanSharded      = "sharded"       // core.ReplaySharded
	spanSnapshot     = "snapshot"      // core.Framework.Snapshot
	spanResume       = "resume"        // core.RunFromSnapshot
	spanMerge        = "merge"         // sim.Stats.MergeFrom over every segment
	spanDump         = "dump"          // sim.Stats.WriteStatsFile
)

// spanTotal accumulates one span's time and call count.
type spanTotal struct {
	ns    int64
	calls int64
}

// tracer collects spans in memory for a traced run. A nil *tracer is the
// untraced run: every method is a no-op, so call sites need no branches.
type tracer struct {
	spans map[string]*spanTotal
}

func newTracer() *tracer { return &tracer{spans: map[string]*spanTotal{}} }

func (t *tracer) start() time.Time {
	if t == nil {
		return time.Time{}
	}
	return time.Now()
}

func (t *tracer) end(name string, start time.Time) {
	if t == nil {
		return
	}
	t.addNs(name, int64(time.Since(start)))
}

// addNs records one call of name that took ns nanoseconds.
func (t *tracer) addNs(name string, ns int64) {
	if t == nil {
		return
	}
	s := t.spans[name]
	if s == nil {
		s = &spanTotal{}
		t.spans[name] = s
	}
	s.ns += ns
	s.calls++
}

// total returns name's accumulated time and calls (zero when never seen).
func (t *tracer) total(name string) spanTotal {
	if s := t.spans[name]; s != nil {
		return *s
	}
	return spanTotal{}
}

// wrap returns src with Next timed; untraced runs get src itself.
func (t *tracer) wrap(src trace.RecordSource) trace.RecordSource {
	if t == nil {
		return src
	}
	return timedSource{RecordSource: src, tr: t}
}

// timedSource times the consumer's wait in Next.
type timedSource struct {
	trace.RecordSource
	tr *tracer
}

func (s timedSource) Next() ([]trace.Record, error) {
	start := time.Now()
	b, err := s.RecordSource.Next()
	s.tr.end(spanNext, start)
	return b, err
}
