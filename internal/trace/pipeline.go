package trace

import (
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Pipelined v2 decode: the chunked format's delta state resets at every
// chunk boundary, so chunks are independently decodable by design — the
// only serial work left in the stream is framing (chunk lengths sit in the
// frame headers) and ordering. v2PipelineSource exploits that with a fixed
// ring of slots:
//
//	reader ──frames chunk k into slot k mod n──▶ workers ──slot.done──▶ Next
//
// One reader goroutine frames chunks and reads their compressed payloads,
// each into the slot the chunk owns; a pool of workers, each with its own
// inflater and decode scratch, decodes slots into the slot's record buffer
// and signals the slot's done channel; Next waits on exactly the next slot
// in stream order, so the consumer sees the exact record sequence — and
// the exact error order — of a sequential decode. The reader reuses a slot
// only after Next has released the chunk it held, so the ring bounds
// resident chunks and the warm steady state allocates nothing (the
// zero-alloc CI guards pin this). Close hands the buffered reader, the
// ring's buffers and the workers' inflaters to the next stream opened, so a
// process that opens stream after stream allocates them once.

// DecodeStats samples the pipelined decoder's progress and stall counters.
// Stalls localize the bottleneck: reorder stalls mean the consumer waited on
// a straggler decode while a later chunk was already done (decode-bound;
// more workers or less compression helps), buffer stalls mean the reader
// waited for the consumer to release a slot (replay-bound; the pipeline is
// keeping up). The monitor surfaces these as kindle_decode_* gauges.
type DecodeStats struct {
	// Workers is the decode pool size.
	Workers int
	// Chunks counts decoded chunks released to the consumer.
	Chunks uint64
	// ReorderStalls counts Next waits on the next chunk in stream order
	// while a later chunk was already decoded; ReorderStallNs is the time
	// spent in them.
	ReorderStalls  uint64
	ReorderStallNs uint64
	// BufferStalls counts reader waits for a free slot before framing a
	// chunk; BufferStallNs is the time spent in them.
	BufferStalls  uint64
	BufferStallNs uint64
}

// DecodeStatsSource is implemented by sources that report decode-pool stall
// counters — every v2 stream opened with OpenStream or OpenStreamConfig;
// sample with a type assertion.
type DecodeStatsSource interface {
	DecodeStats() DecodeStats
}

// pipeSlot is one ring slot. The reader fills frame, disk and recBase and
// hands the slot to a worker, which fills recs, lastPeriod and err; a slot
// whose chunk ends the stream (a frame or payload read error, or the footer
// check, io.EOF when clean) skips the workers and carries only err. Either
// way done receives exactly one signal per use, and the channel operations
// order every field access between the three goroutines.
type pipeSlot struct {
	frame      chunkFrame
	disk       []byte
	recBase    int // stream index of the chunk's first record (error text)
	recs       []Record
	lastPeriod uint64
	err        error
	done       chan struct{}
}

// v2PipelineSource is the v2 decoder behind OpenStreamConfig. Its slots
// and decoders come from a closed stream's state (streamState) when one is
// spare, and Close hands them, with the reader, to the next stream opened
// as one state.
type v2PipelineSource struct {
	h       *streamHeader
	total   int
	workers int

	st    *streamState    // nil after Close
	slots []*pipeSlot     // st's first workers+2 slots; nil after Close
	decs  []*chunkDecoder // st's first workers decoders; nil after Close
	// free holds one token per slot not held by the reader, a worker or
	// the consumer; the reader takes one before framing each chunk.
	free chan struct{}
	jobs chan *pipeSlot
	stop chan struct{}

	// Consumer state, touched only by Next and Close.
	next       int // stream index of the chunk Next returns next
	lastPeriod uint64
	ended      bool

	closeOnce sync.Once
	wg        sync.WaitGroup

	decoded        atomic.Uint64 // worker completions, for reorder-stall detection
	chunks         atomic.Uint64
	reorderStalls  atomic.Uint64
	reorderStallNs atomic.Uint64
	bufferStalls   atomic.Uint64
	bufferStallNs  atomic.Uint64
}

// newPipelineSource starts the decode pipeline: one reader and workers
// decoders over a ring of workers+2 slots — one per worker, one for the
// batch the consumer holds, and one the reader frames ahead so the workers
// never wait on framing. The pipeline owns st until Close, and the reader
// owns st.c until the pipeline stops.
func newPipelineSource(st *streamState, h *streamHeader, total, workers int) *v2PipelineSource {
	n := workers + 2
	for len(st.slots) < n {
		st.slots = append(st.slots, &pipeSlot{done: make(chan struct{}, 1)})
	}
	for len(st.decs) < workers {
		st.decs = append(st.decs, new(chunkDecoder))
	}
	s := &v2PipelineSource{
		h:       h,
		total:   total,
		workers: workers,
		st:      st,
		slots:   st.slots[:n],
		decs:    st.decs[:workers],
		free:    make(chan struct{}, n),
		// Sized to the slot count, so the reader never blocks handing off.
		jobs: make(chan *pipeSlot, n),
		stop: make(chan struct{}),
	}
	for range s.slots {
		s.free <- struct{}{}
	}
	s.wg.Add(1 + workers)
	go s.readLoop(&st.c)
	for _, d := range s.decs {
		go s.decodeLoop(d)
	}
	return s
}

func (s *v2PipelineSource) Benchmark() string { return s.h.benchmark }
func (s *v2PipelineSource) Areas() []Area     { return s.h.areas }
func (s *v2PipelineSource) Total() int        { return s.total }

// Next returns the next chunk's records in stream order, waiting for its
// slot, and releases the previous batch's slot to the reader.
func (s *v2PipelineSource) Next() ([]Record, error) {
	if s.ended {
		return nil, io.EOF
	}
	if s.next > 0 {
		s.free <- struct{}{} // one token per slot: never blocks
	}
	sl := s.slots[s.next%len(s.slots)]
	// Loaded before polling the slot: a chunk counted here is already
	// done, so if this slot is not, a later chunk is.
	later := s.decoded.Load() > uint64(s.next)
	select {
	case <-sl.done:
	default:
		if later {
			// A straggler decode is head-of-line blocking the consumer.
			s.reorderStalls.Add(1)
			t0 := time.Now()
			<-sl.done
			s.reorderStallNs.Add(uint64(time.Since(t0)))
		} else {
			<-sl.done
		}
	}
	switch {
	case sl.frame.count > 0 && sl.frame.basePeriod < s.lastPeriod:
		// Only the consumer knows the previous chunk's last period; a
		// sequential decode checks it before reading the payload, so it
		// takes precedence over the slot's payload or decode error.
		s.ended = true
		return nil, errBasePeriodBackwards(sl.frame, s.lastPeriod)
	case sl.err != nil:
		s.ended = true
		return nil, sl.err
	}
	s.lastPeriod = sl.lastPeriod
	s.next++
	s.chunks.Add(1)
	return sl.recs, nil
}

// Close stops every pipeline goroutine and waits for them all to exit, so
// the caller may close the underlying reader afterwards, then hands the
// reader and the pipeline's buffers to the next stream opened; Next then
// reports io.EOF.
func (s *v2PipelineSource) Close() error {
	s.ended = true
	s.closeOnce.Do(func() {
		close(s.stop)
		s.wg.Wait()
		for _, sl := range s.slots {
			select {
			case <-sl.done: // a signal the consumer never took
			default:
			}
			*sl = pipeSlot{disk: sl.disk, recs: sl.recs, done: sl.done}
		}
		// Chunk k always lands in slot k mod n, but any worker may decode
		// it: a worker that met only smaller chunks than another would
		// regrow its raw buffer when a later stream over the same image
		// hands it a larger one. Grow each to the largest now.
		largest := 0
		for _, d := range s.decs {
			largest = max(largest, cap(d.raw))
		}
		for _, d := range s.decs {
			if cap(d.raw) < largest {
				d.raw = make([]byte, largest)
			}
		}
		s.st.put()
		s.st, s.slots, s.decs = nil, nil, nil
	})
	return nil
}

// DecodeStats samples the stall counters; safe from any goroutine.
func (s *v2PipelineSource) DecodeStats() DecodeStats {
	return DecodeStats{
		Workers:        s.workers,
		Chunks:         s.chunks.Load(),
		ReorderStalls:  s.reorderStalls.Load(),
		ReorderStallNs: s.reorderStallNs.Load(),
		BufferStalls:   s.bufferStalls.Load(),
		BufferStallNs:  s.bufferStallNs.Load(),
	}
}

// readLoop owns the reader: it frames chunk k into slot k mod n (cheap —
// lengths are in the headers), reads its compressed payload and hands the
// slot to the workers. The chunk that ends the stream — a frame-level
// failure, a torn payload or the footer — is signalled on its own slot, so
// Next surfaces it only after every earlier chunk.
func (s *v2PipelineSource) readLoop(c *countingReader) {
	defer s.wg.Done()
	defer close(s.jobs)
	// Sized from the footer's total, which stays unverified until the
	// footer check: capped, so a corrupt total cannot size an allocation.
	seen := make([]chunkIndexEntry, 0, min(max(s.total, 0)/DefaultChunkRecords+1, 1<<16))
	recBase := 0
	for k := 0; ; k++ {
		select {
		case <-s.free:
		default:
			// Every slot is downstream: decode is ahead of replay. Count
			// the stall — the consumer, not the decode pool, is the
			// bottleneck.
			s.bufferStalls.Add(1)
			t0 := time.Now()
			select {
			case <-s.free:
			case <-s.stop:
				return
			}
			s.bufferStallNs.Add(uint64(time.Since(t0)))
		}
		sl := s.slots[k%len(s.slots)]
		f, err := readChunkFrame(c)
		switch {
		case err != nil:
			f = chunkFrame{} // a half-parsed frame must not reach the base-period check
		case f.terminator:
			err = checkStreamFooter(c, seen, recBase)
		default:
			sl.disk, err = readDisk(c, f, sl.disk)
		}
		sl.frame = f
		if err != nil {
			sl.err = err
			sl.done <- struct{}{}
			return
		}
		sl.recBase = recBase
		s.jobs <- sl
		seen = append(seen, chunkIndexEntry{records: f.count, diskBytes: f.diskLen})
		recBase += int(f.count)
	}
}

// decodeLoop is one pool worker: decompress with its own decoder and
// decode into the slot's record buffer. Decode errors ride the slot — Next
// surfaces them in chunk order.
func (s *v2PipelineSource) decodeLoop(dec *chunkDecoder) {
	defer s.wg.Done()
	// Allocated here rather than pooled: every record writes it, and the
	// offsets of two workers allocated side by side on the opener's
	// goroutine would share a cache line.
	lastOffs := make([]uint64, len(s.h.areas))
	for sl := range s.jobs {
		f := sl.frame
		payload, err := dec.inflatePayload(f, sl.disk)
		if err == nil {
			// A decode error drops the slot's buffer; the next stream
			// to get the slot grows a new one.
			clear(lastOffs)
			sl.recs, sl.lastPeriod, err = decodeChunkPayload(payload, int(f.count), f.basePeriod,
				s.h.areas, lastOffs, sl.recs, sl.recBase, f.payloadStart)
		}
		sl.err = err
		sl.done <- struct{}{}
		s.decoded.Add(1) // after the signal: a counted chunk is always done
	}
}
