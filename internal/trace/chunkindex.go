package trace

import (
	"bufio"
	"fmt"
	"io"
	"sync"
)

// Chunk-range access: sharded replay partitions a v2 image by chunk, so it
// needs the chunk boundaries up front (ScanChunkIndex) and a decoder that
// replays just a half-open chunk range (OpenRange). Both lean on the same
// frame parser and payload decoder as the streaming sources, so a range
// decode rejects corruption with identical errors.

// ChunkRef locates one chunk of a v2 image.
type ChunkRef struct {
	// Offset is the file offset of the chunk's frame header.
	Offset int64
	// Records is the chunk's record count.
	Records int
	// BasePeriod is the period preceding the chunk's first record — the
	// delta base its first record encodes against. A range replay starting
	// here seeds its period clock with it.
	BasePeriod uint64
}

// ChunkIndex is the scanned structure of a v2 image: the header plus every
// chunk's location. It indexes the file it was scanned from; chunk offsets
// are meaningless against any other stream.
type ChunkIndex struct {
	Benchmark string
	Areas     []Area
	Chunks    []ChunkRef
	// Total is the image's record count (the sum of Chunks[i].Records,
	// cross-checked against the footer).
	Total int
}

// discard skips n payload bytes, tracking the offset like Read does.
func (c *countingReader) discard(n int64, what string) error {
	m, err := c.r.Discard(int(n))
	c.off += int64(m)
	if err != nil {
		return c.fail(what, err)
	}
	return nil
}

// ScanChunkIndex walks a v2 image from the start, validating every chunk
// frame and the footer, and returns the chunk index. Payloads are skipped,
// not decoded, so a scan is an order of magnitude cheaper than a replay.
// The reader is left at an unspecified position.
func ScanChunkIndex(rs io.ReadSeeker) (*ChunkIndex, error) {
	if _, err := rs.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("trace: seeking to header: %w", err)
	}
	c := newCountingReader(rs)
	h, err := readStreamHeader(c)
	if err != nil {
		return nil, err
	}
	if h.version != formatVer2 {
		return nil, fmt.Errorf("trace: chunk index requires a v2 image (version %d): %w", h.version, ErrCorrupt)
	}
	ix := &ChunkIndex{Benchmark: h.benchmark, Areas: h.areas}
	var seen []chunkIndexEntry
	for {
		off := c.off
		f, err := readChunkFrame(c)
		if err != nil {
			return nil, err
		}
		if f.terminator {
			if err := checkStreamFooter(c, seen, ix.Total); err != io.EOF {
				return nil, err
			}
			return ix, nil
		}
		if err := c.discard(int64(f.diskLen), "chunk payload"); err != nil {
			return nil, err
		}
		ix.Chunks = append(ix.Chunks, ChunkRef{
			Offset:     off,
			Records:    int(f.count),
			BasePeriod: f.basePeriod,
		})
		seen = append(seen, chunkIndexEntry{records: f.count, diskBytes: f.diskLen})
		ix.Total += int(f.count)
	}
}

// RangeTotal returns the record count of the chunk range [lo, hi).
func (ix *ChunkIndex) RangeTotal(lo, hi int) int {
	n := 0
	for _, ref := range ix.Chunks[lo:hi] {
		n += ref.Records
	}
	return n
}

// OpenRange returns a RecordSource decoding exactly the chunks [lo, hi) of
// the indexed image. rs must be the stream the index was scanned from; the
// source seeks it and owns its position until Close, which does not close
// rs. The source decodes synchronously on the caller's goroutine —
// sharded replay gets its concurrency from running many ranges at once,
// not from a decode pool inside each one. Close hands the source's decode
// buffers to the next range opened, so a worker replaying range after
// range allocates them once.
func (ix *ChunkIndex) OpenRange(rs io.ReadSeeker, lo, hi int) (RecordSource, error) {
	if lo < 0 || hi > len(ix.Chunks) || lo > hi {
		return nil, fmt.Errorf("trace: chunk range [%d, %d) outside image of %d chunks", lo, hi, len(ix.Chunks))
	}
	s := &v2RangeSource{ix: ix, next: lo, hi: hi, total: ix.RangeTotal(lo, hi)}
	if lo < hi {
		if _, err := rs.Seek(ix.Chunks[lo].Offset, io.SeekStart); err != nil {
			return nil, fmt.Errorf("trace: seeking to chunk %d: %w", lo, err)
		}
		s.st = rangeStates.Get().(*rangeState)
		s.st.reset(rs, ix.Chunks[lo].Offset, len(ix.Areas))
		s.lastPeriod = ix.Chunks[lo].BasePeriod
		for _, ref := range ix.Chunks[:lo] {
			s.recBase += ref.Records
		}
	}
	return s, nil
}

// rangeState is a range source's decode state: the buffered reader, the
// disk, raw and record buffers and the inflater. Each grows to the largest
// chunk it has seen and is recycled through rangeStates.
type rangeState struct {
	c        countingReader
	disk     []byte
	dec      chunkDecoder
	lastOffs []uint64
	recs     []Record
}

var rangeStates = sync.Pool{New: func() any { return new(rangeState) }}

// reset points the state at rs, positioned at file offset off, for an
// image of nAreas areas.
func (st *rangeState) reset(rs io.Reader, off int64, nAreas int) {
	if st.c.r == nil {
		st.c.r = bufio.NewReaderSize(rs, 1<<16)
	} else {
		st.c.r.Reset(rs)
	}
	st.c.off = off
	if cap(st.lastOffs) < nAreas {
		st.lastOffs = make([]uint64, nAreas)
	}
	st.lastOffs = st.lastOffs[:nAreas]
}

// v2RangeSource decodes one chunk per Next call from a seekable v2 image,
// reusing its state's record buffer; the batch is valid until the
// following Next or Close, per the RecordSource contract.
type v2RangeSource struct {
	ix       *ChunkIndex
	st       *rangeState // nil for an empty range and after Close
	next, hi int
	total    int
	recBase  int

	lastPeriod uint64
}

func (s *v2RangeSource) Benchmark() string { return s.ix.Benchmark }
func (s *v2RangeSource) Areas() []Area     { return s.ix.Areas }
func (s *v2RangeSource) Total() int        { return s.total }

// Close returns the decode state for reuse; Next then reports io.EOF.
func (s *v2RangeSource) Close() error {
	if s.st != nil {
		s.st.c.r.Reset(nil) // do not pin the caller's reader
		rangeStates.Put(s.st)
		s.st = nil
	}
	s.next = s.hi
	return nil
}

func (s *v2RangeSource) Next() ([]Record, error) {
	if s.next >= s.hi {
		return nil, io.EOF
	}
	st := s.st
	f, err := readChunkFrame(&st.c)
	if err != nil {
		return nil, err
	}
	if f.terminator {
		return nil, fmt.Errorf("trace: offset %d: stream terminates inside chunk range [%d, %d): %w",
			st.c.off, s.next, s.hi, ErrCorrupt)
	}
	if f.basePeriod < s.lastPeriod {
		return nil, errBasePeriodBackwards(f, s.lastPeriod)
	}
	if st.disk, err = readDisk(&st.c, f, st.disk); err != nil {
		return nil, err
	}
	payload, err := st.dec.inflatePayload(f, st.disk)
	if err != nil {
		return nil, err
	}
	clear(st.lastOffs)
	recs, last, err := decodeChunkPayload(payload, int(f.count), f.basePeriod,
		s.ix.Areas, st.lastOffs, st.recs, s.recBase, f.payloadStart)
	if err != nil {
		return nil, err
	}
	st.recs = recs
	s.lastPeriod = last
	s.recBase += int(f.count)
	s.next++
	return recs, nil
}
