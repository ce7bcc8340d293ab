package trace

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"

	"kindle/internal/spare"
)

// Stream format (version 2): the chunked, varint-delta-compressed on-disk
// trace. Unlike version 1 — a single header followed by one flat record
// stream whose decoder materializes everything — a v2 image is a sequence
// of independently decodable chunks, so paper-scale traces replay in
// bounded memory while a worker pool decodes chunks ahead of the consumer.
//
// Layout:
//
//	u32    magic "KTRC"
//	u32    version = 2
//	string benchmark          (length byte + bytes)
//	uvarint area count, then per area: string name, uvarint size, byte flags
//	chunks, each:
//	    uvarint record count  (0 terminates the chunk sequence)
//	    byte    codec         (0 = raw, 1 = DEFLATE)
//	    uvarint base period   (period preceding the chunk's first record)
//	    uvarint raw payload bytes
//	    uvarint disk payload bytes
//	    payload
//	footer (after the 0 terminator):
//	    uvarint chunk count, then per chunk: uvarint records, uvarint disk bytes
//	    uvarint total records
//	u32 footer length (bytes of the footer block above)
//	u32 footer magic "KIDX"
//
// Chunk payloads encode each record as four varints: the period delta
// against the previous record (the chunk's base period for the first), a
// tag packing area<<1|op, the offset as a zigzag delta against the same
// area's previous offset within the chunk (absolute at chunk start), and
// the size. Delta state resets at every chunk boundary, which is what
// makes chunks independently decodable and lets the trailing footer index
// support seeking.

const (
	formatVer2 = uint32(2)

	// DefaultChunkRecords is the records-per-chunk target of the v2
	// writer: big enough to amortize chunk framing and compression,
	// small enough that two resident chunks stay a few MiB.
	DefaultChunkRecords = 1 << 16

	footerMagic = uint32(0x4B494458) // "KIDX"

	codecRaw   = 0
	codecFlate = 1

	// Decoder hard limits: no well-formed writer output exceeds these, so
	// anything past them is corruption — reject it before allocating.
	maxChunkRecords = 1 << 22
	maxChunkBytes   = 1 << 28

	// maxAreas is the most areas an image may have: as many as
	// Record.Area, a uint16, can index. ValidateHeader enforces it on
	// every writer and readStreamHeader on every reader, so no area index
	// that reaches a Record is ever cut to 16 bits.
	maxAreas = 1 << 16
)

// ErrCorrupt tags decode failures caused by malformed input (as opposed to
// I/O errors); wrap-checked with errors.Is.
var ErrCorrupt = errors.New("corrupt trace")

// RecordSink consumes records one at a time; *StreamWriter implements it,
// as does anything that wants to observe a trace as it is captured.
type RecordSink interface {
	Write(rec Record) error
}

// RecordSource is a streamed trace: the header up front, records in
// batches. Next returns the next batch and io.EOF after the last one. A
// batch is valid only until the next Next or Close call: the source reuses
// its memory. Total is the record count when known (materialized images,
// v1 streams, seekable v2 streams) and -1 otherwise. Close releases the
// decoder; it never closes the underlying reader.
type RecordSource interface {
	Benchmark() string
	Areas() []Area
	Total() int
	Next() ([]Record, error)
	Close() error
}

// ValidateHeader checks the header invariants shared by materialized
// images and streams: a benchmark name, at least one area and at most
// 65,536, every area named and sized.
func ValidateHeader(benchmark string, areas []Area) error {
	if benchmark == "" {
		return errors.New("trace: image without benchmark name")
	}
	if len(areas) == 0 {
		return errors.New("trace: image without areas")
	}
	if len(areas) > maxAreas {
		return fmt.Errorf("trace: image has %d areas, limit %d", len(areas), maxAreas)
	}
	for i, a := range areas {
		if a.Name == "" {
			return fmt.Errorf("trace: area %d unnamed", i)
		}
		if a.Size == 0 {
			return fmt.Errorf("trace: area %q has zero size", a.Name)
		}
	}
	return nil
}

// validateRecord checks one record against the area table and the period
// of the record before it (0 for the first), as Image.Validate does for
// each record. index is the record's position in the trace, used only for
// the error text.
func validateRecord(rec Record, areas []Area, lastPeriod uint64, index int) error {
	if int(rec.Area) >= len(areas) {
		return fmt.Errorf("trace: record %d references area %d of %d: %w", index, rec.Area, len(areas), ErrCorrupt)
	}
	a := areas[rec.Area]
	if rec.Size == 0 {
		return fmt.Errorf("trace: record %d has zero size: %w", index, ErrCorrupt)
	}
	if rec.Offset+uint64(rec.Size) > a.Size || rec.Offset+uint64(rec.Size) < rec.Offset {
		return fmt.Errorf("trace: record %d overruns area %q (%d+%d > %d): %w",
			index, a.Name, rec.Offset, rec.Size, a.Size, ErrCorrupt)
	}
	if rec.Period < lastPeriod {
		return fmt.Errorf("trace: record %d period goes backwards (%d < %d): %w",
			index, rec.Period, lastPeriod, ErrCorrupt)
	}
	if rec.Op != Read && rec.Op != Write {
		return fmt.Errorf("trace: record %d has op %d: %w", index, rec.Op, ErrCorrupt)
	}
	return nil
}

func zigzag(d int64) uint64   { return uint64(d<<1) ^ uint64(d>>63) }
func unzigzag(v uint64) int64 { return int64(v>>1) ^ -int64(v&1) }

// countingReader tracks the byte offset of a buffered reader so decode
// errors can point at the exact spot in the file.
type countingReader struct {
	r   *bufio.Reader
	off int64
}

func newCountingReader(r io.Reader) *countingReader {
	c := new(countingReader)
	c.reset(r, 0)
	return c
}

// reset points c at r, whose next byte sits at file offset off. The first
// reset allocates c's 64 KiB buffer and later ones reuse it. The buffer is
// always c's own, never a bufio.Reader the caller passed in, so a recycled
// decode state never shares one with its caller.
func (c *countingReader) reset(r io.Reader, off int64) {
	if c.r == nil {
		c.r = bufio.NewReaderSize(nil, 1<<16)
	}
	c.r.Reset(r)
	c.off = off
}

func (c *countingReader) ReadByte() (byte, error) {
	b, err := c.r.ReadByte()
	if err == nil {
		c.off++
	}
	return b, err
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.off += int64(n)
	return n, err
}

// fail wraps a low-level read error with the current file offset and what
// the decoder was expecting there. A clean EOF in the middle of a
// structure is truncation, not end-of-input.
func (c *countingReader) fail(what string, err error) error {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	return fmt.Errorf("trace: offset %d: reading %s: %w", c.off, what, err)
}

func (c *countingReader) u32(what string) (uint32, error) {
	var buf [4]byte
	if _, err := io.ReadFull(c, buf[:]); err != nil {
		return 0, c.fail(what, err)
	}
	return binary.LittleEndian.Uint32(buf[:]), nil
}

func (c *countingReader) uvarint(what string) (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, c.fail(what, err)
	}
	return v, nil
}

func (c *countingReader) str(what string) (string, error) {
	n, err := c.ReadByte()
	if err != nil {
		return "", c.fail(what+" length", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", c.fail(what, err)
	}
	return string(buf), nil
}

// uvarintAt is uvarint for the i-th of a run of like fields, such as a
// footer entry. Its label is format with one %d filled with i, formatted
// only when the read fails, so a good footer formats none.
func (c *countingReader) uvarintAt(format string, i int) (uint64, error) {
	v, err := binary.ReadUvarint(c)
	if err != nil {
		return 0, c.fail(fmt.Sprintf(format, i), err)
	}
	return v, nil
}

// strAt is str for the i-th of a run of like fields, such as an area's
// name, labelled as uvarintAt labels them.
func (c *countingReader) strAt(format string, i int) (string, error) {
	n, err := c.ReadByte()
	if err != nil {
		return "", c.fail(fmt.Sprintf(format, i)+" length", err)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(c, buf); err != nil {
		return "", c.fail(fmt.Sprintf(format, i), err)
	}
	return string(buf), nil
}

// streamHeader is the part of either format preceding the records.
type streamHeader struct {
	version   uint32
	benchmark string
	areas     []Area
}

// readStreamHeader parses the common header and sniffs the version.
func readStreamHeader(c *countingReader) (*streamHeader, error) {
	magic, err := c.u32("magic")
	if err != nil {
		return nil, err
	}
	if magic != formatMagic {
		return nil, fmt.Errorf("trace: offset 0: bad magic %#x (want %#x): %w", magic, formatMagic, ErrCorrupt)
	}
	ver, err := c.u32("version")
	if err != nil {
		return nil, err
	}
	if ver != formatVer && ver != formatVer2 {
		return nil, fmt.Errorf("trace: offset 4: unsupported version %d: %w", ver, ErrCorrupt)
	}
	h := &streamHeader{version: ver}
	if h.benchmark, err = c.str("benchmark name"); err != nil {
		return nil, err
	}
	nAreas, err := c.uvarint("area count")
	if err != nil {
		return nil, err
	}
	if nAreas > maxAreas {
		return nil, fmt.Errorf("trace: offset %d: area count %d exceeds limit %d: %w", c.off, nAreas, maxAreas, ErrCorrupt)
	}
	h.areas = make([]Area, 0, min(nAreas, 4096))
	for i := range int(nAreas) {
		var a Area
		if a.Name, err = c.strAt("area %d name", i); err != nil {
			return nil, err
		}
		if a.Size, err = c.uvarintAt("area %d size", i); err != nil {
			return nil, err
		}
		flags, err := c.ReadByte()
		if err != nil {
			return nil, c.fail(fmt.Sprintf("area %d flags", i), err)
		}
		a.NVM = flags&1 != 0
		a.Write = flags&2 != 0
		h.areas = append(h.areas, a)
	}
	if err := ValidateHeader(h.benchmark, h.areas); err != nil {
		return nil, fmt.Errorf("%w: %w", err, ErrCorrupt)
	}
	return h, nil
}

// StreamConfig tunes how OpenStreamConfig decodes a stream. The zero value
// is the default configuration.
type StreamConfig struct {
	// DecodeWorkers sizes the chunk-decode worker pool of a v2 stream
	// (0 picks GOMAXPROCS): one reader goroutine frames compressed chunks
	// into a ring of DecodeWorkers+2 slots, DecodeWorkers goroutines
	// decompress and decode them, and Next takes the slots back in chunk
	// order. Even one worker overlaps decode with replay. Record sequence
	// and error order are identical at any size; only the host-side decode
	// concurrency changes. v1 streams ignore it.
	DecodeWorkers int
}

// OpenStream opens a binary trace for streamed replay with the default
// configuration; see OpenStreamConfig.
func OpenStream(r io.Reader) (RecordSource, error) {
	return OpenStreamConfig(r, StreamConfig{})
}

// OpenStreamConfig opens a binary trace for streamed replay, sniffing the
// format version from the header: v1 images decode incrementally in
// DefaultChunkRecords batches, v2 images chunk-by-chunk through a decode
// worker pool (see StreamConfig.DecodeWorkers). The caller must Close the
// source (which does not close r) and keeps ownership of r.
func OpenStreamConfig(r io.Reader, cfg StreamConfig) (RecordSource, error) {
	total := -1
	if rs, ok := r.(io.ReadSeeker); ok {
		if t, ok := readV2FooterTotal(rs); ok {
			total = t
		}
	}
	st := getStreamState(r)
	h, err := readStreamHeader(&st.c)
	if err != nil {
		st.put()
		return nil, err
	}
	if h.version == formatVer {
		n, err := st.c.uvarint("record count")
		if err == nil && n > 1<<62 {
			err = fmt.Errorf("trace: offset %d: implausible record count %d: %w", st.c.off, n, ErrCorrupt)
		}
		if err != nil {
			st.put()
			return nil, err
		}
		return &v1Source{st: st, h: h, total: int(n)}, nil
	}
	workers := cfg.DecodeWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return newPipelineSource(st, h, total, workers), nil
}

// streamState is what a closed stream hands to the next one opened: the
// buffered reader, and either the decode pool's slots (each with its disk
// and record buffers) and decoders (each with its inflater and raw buffer)
// or a v1 stream's record batch. Each buffer grows to the largest chunk it
// has seen.
type streamState struct {
	c     countingReader
	slots []*pipeSlot
	decs  []*chunkDecoder
	batch []Record
}

// streamStates holds closed streams' states; see package spare for its
// bound.
var streamStates spare.List[struct{}, *streamState]

// getStreamState takes a closed stream's state, or a new one, and points
// its reader at r.
func getStreamState(r io.Reader) *streamState {
	st, ok := streamStates.Get(struct{}{})
	if !ok {
		st = new(streamState)
	}
	st.c.reset(r, 0)
	return st
}

// put hands st to the next stream opened; the caller must not use it again.
func (st *streamState) put() {
	st.c.r.Reset(nil) // do not pin the caller's reader
	streamStates.Put(struct{}{}, st)
}

// readV2FooterTotal fetches the total record count from a seekable v2
// stream's trailing footer without disturbing the read position. ok is
// false for v1 images, non-seekable readers and anything malformed — the
// sequential decoder then discovers the truth on its own.
func readV2FooterTotal(rs io.ReadSeeker) (total int, ok bool) {
	start, err := rs.Seek(0, io.SeekCurrent)
	if err != nil {
		return 0, false
	}
	defer rs.Seek(start, io.SeekStart)
	end, err := rs.Seek(0, io.SeekEnd)
	if err != nil || end-start < 8 {
		return 0, false
	}
	var tail [8]byte
	if _, err := rs.Seek(end-8, io.SeekStart); err != nil {
		return 0, false
	}
	if _, err := io.ReadFull(rs, tail[:]); err != nil {
		return 0, false
	}
	if binary.LittleEndian.Uint32(tail[4:]) != footerMagic {
		return 0, false
	}
	fLen := int64(binary.LittleEndian.Uint32(tail[:4]))
	if fLen <= 0 || fLen > 1<<24 || end-8-fLen < start {
		return 0, false
	}
	if _, err := rs.Seek(end-8-fLen, io.SeekStart); err != nil {
		return 0, false
	}
	buf := make([]byte, fLen)
	if _, err := io.ReadFull(rs, buf); err != nil {
		return 0, false
	}
	pos := 0
	next := func() (uint64, bool) {
		v, n := binary.Uvarint(buf[pos:])
		if n <= 0 {
			return 0, false
		}
		pos += n
		return v, true
	}
	nChunks, ok2 := next()
	if !ok2 || nChunks > uint64(fLen) {
		return 0, false
	}
	for i := uint64(0); i < nChunks; i++ {
		if _, ok2 = next(); !ok2 { // records
			return 0, false
		}
		if _, ok2 = next(); !ok2 { // disk bytes
			return 0, false
		}
	}
	t, ok2 := next()
	if !ok2 || t > 1<<62 {
		return 0, false
	}
	return int(t), true
}

// NewImageSource adapts a materialized image to the streamed interface:
// one batch aliasing img.Records, then io.EOF. The image must already be
// Validated; the source performs no per-record checks.
func NewImageSource(img *Image) RecordSource { return &imageSource{img: img} }

type imageSource struct {
	img  *Image
	done bool
}

func (s *imageSource) Benchmark() string { return s.img.Benchmark }
func (s *imageSource) Areas() []Area     { return s.img.Areas }
func (s *imageSource) Total() int        { return len(s.img.Records) }
func (s *imageSource) Close() error      { return nil }

func (s *imageSource) Next() ([]Record, error) {
	if s.done || len(s.img.Records) == 0 {
		return nil, io.EOF
	}
	s.done = true
	return s.img.Records, nil
}

// v1Source streams a version-1 image: the flat record stream decodes on
// demand into one reusable batch, so even the legacy format replays
// without materializing.
type v1Source struct {
	st         *streamState // nil after Close
	h          *streamHeader
	total      int
	read       int
	lastPeriod uint64
}

func (s *v1Source) Benchmark() string { return s.h.benchmark }
func (s *v1Source) Areas() []Area     { return s.h.areas }
func (s *v1Source) Total() int        { return s.total }

// Close hands the reader and batch to the next stream opened; Next then
// reports io.EOF.
func (s *v1Source) Close() error {
	if s.st != nil {
		s.st.put()
		s.st = nil
	}
	s.read = s.total
	return nil
}

func (s *v1Source) Next() ([]Record, error) {
	if s.read >= s.total {
		return nil, io.EOF
	}
	n := min(s.total-s.read, DefaultChunkRecords)
	if cap(s.st.batch) < n {
		s.st.batch = make([]Record, n)
	}
	batch := s.st.batch[:n]
	c := &s.st.c
	// Field labels are static: formatting the record index into every
	// context string allocated four strings per record on the happy path.
	// The error's byte offset (and validateRecord's index) still localize
	// any failure.
	for i := range batch {
		idx := s.read + i
		d, err := c.uvarint("record period delta")
		if err != nil {
			return nil, err
		}
		prev := s.lastPeriod
		s.lastPeriod += d
		batch[i].Period = s.lastPeriod
		if batch[i].Offset, err = c.uvarint("record offset"); err != nil {
			return nil, err
		}
		op, err := c.ReadByte()
		if err != nil {
			return nil, c.fail("record op", err)
		}
		batch[i].Op = Op(op)
		sz, err := c.uvarint("record size")
		if err != nil {
			return nil, err
		}
		// Size and area are checked at full width: narrowed first, size
		// 2^32+8 would pass as 8 and area 65,536+k as area k.
		if sz > uint64(^uint32(0)) {
			return nil, fmt.Errorf("trace: record %d has size %d: %w", idx, sz, ErrCorrupt)
		}
		batch[i].Size = uint32(sz)
		ar, err := c.uvarint("record area")
		if err != nil {
			return nil, err
		}
		if ar >= uint64(len(s.h.areas)) {
			return nil, fmt.Errorf("trace: record %d references area %d of %d: %w", idx, ar, len(s.h.areas), ErrCorrupt)
		}
		batch[i].Area = uint16(ar)
		if err := validateRecord(batch[i], s.h.areas, prev, idx); err != nil {
			return nil, err
		}
	}
	s.read += n
	return batch, nil
}

// chunkFrame is one parsed v2 chunk frame header: everything before the
// payload, plus the reader offsets decode errors must point at. A frame
// with terminator set marks the end of the chunk sequence (the footer
// index follows).
type chunkFrame struct {
	count      uint64
	codec      byte
	basePeriod uint64
	rawLen     uint64
	diskLen    uint64
	// basePeriodOff is the reader offset right after the base-period
	// varint — where the cross-chunk monotonicity error points. The
	// monotonicity check itself is the caller's: only a decoder that
	// consumes chunks in stream order knows the previous chunk's last
	// period.
	basePeriodOff int64
	// payloadStart is the reader offset of the first payload byte.
	payloadStart int64
	terminator   bool
}

// readChunkFrame parses the next chunk's frame header, validating every
// field against the decoder hard limits. It is shared by the decode pool's
// reader goroutine, the chunk-index scanner and the range source, so all of
// them reject corruption with identical errors.
func readChunkFrame(c *countingReader) (chunkFrame, error) {
	var f chunkFrame
	count, err := c.uvarint("chunk record count")
	if err != nil {
		return f, err
	}
	if count == 0 {
		f.terminator = true
		return f, nil
	}
	if count > maxChunkRecords {
		return f, fmt.Errorf("trace: offset %d: chunk of %d records exceeds limit %d: %w", c.off, count, maxChunkRecords, ErrCorrupt)
	}
	f.count = count
	codec, err := c.ReadByte()
	if err != nil {
		return f, c.fail("chunk codec", err)
	}
	if codec != codecRaw && codec != codecFlate {
		return f, fmt.Errorf("trace: offset %d: unknown chunk codec %d: %w", c.off, codec, ErrCorrupt)
	}
	f.codec = codec
	if f.basePeriod, err = c.uvarint("chunk base period"); err != nil {
		return f, err
	}
	f.basePeriodOff = c.off
	if f.rawLen, err = c.uvarint("chunk raw length"); err != nil {
		return f, err
	}
	if f.diskLen, err = c.uvarint("chunk disk length"); err != nil {
		return f, err
	}
	if f.rawLen > maxChunkBytes || f.diskLen > maxChunkBytes {
		return f, fmt.Errorf("trace: offset %d: chunk payload %d/%d bytes exceeds limit %d: %w", c.off, f.rawLen, f.diskLen, maxChunkBytes, ErrCorrupt)
	}
	if codec == codecRaw && f.rawLen != f.diskLen {
		return f, fmt.Errorf("trace: offset %d: raw chunk with disk length %d != raw length %d: %w", c.off, f.diskLen, f.rawLen, ErrCorrupt)
	}
	f.payloadStart = c.off
	return f, nil
}

// errBasePeriodBackwards renders the cross-chunk monotonicity violation for
// a frame, identically wherever in the pipeline it is detected.
func errBasePeriodBackwards(f chunkFrame, lastPeriod uint64) error {
	return fmt.Errorf("trace: offset %d: chunk base period goes backwards (%d < %d): %w", f.basePeriodOff, f.basePeriod, lastPeriod, ErrCorrupt)
}

// grow returns buf resliced to n elements. A buffer too short is replaced
// by one at least twice as long, but no longer than limit, the decoder's
// hard limit on n: a buffer meeting larger and larger chunks reallocates a
// logarithmic number of times rather than at each new maximum, and a
// corrupt frame still cannot make it allocate past the limit.
func grow[T any](buf []T, n, limit int) []T {
	if cap(buf) < n {
		buf = make([]T, max(n, min(2*cap(buf), limit)))
	}
	return buf[:n]
}

// readDisk reads the frame's on-disk payload into buf, grown to the
// largest chunk and reused after that.
func readDisk(c *countingReader, f chunkFrame, buf []byte) ([]byte, error) {
	buf = grow(buf, int(f.diskLen), maxChunkBytes)
	if _, err := io.ReadFull(c, buf); err != nil {
		return buf, c.fail("chunk payload", err)
	}
	return buf, nil
}

// chunkDecoder holds the reusable per-decoder inflate state: the raw buffer
// grows to the largest chunk and stays there, and the inflater rebuilds its
// tables in place, so the steady-state chunk loop performs no heap
// allocation at all (the zero-alloc CI guards pin this). Each concurrent
// decoder owns one.
type chunkDecoder struct {
	raw []byte
	inf inflater
}

// inflatePayload turns a frame's on-disk payload bytes into the raw chunk
// payload: returned as-is for raw chunks, inflated into the reused raw
// buffer for DEFLATE chunks.
func (d *chunkDecoder) inflatePayload(f chunkFrame, disk []byte) ([]byte, error) {
	if f.codec != codecFlate {
		return disk, nil
	}
	d.raw = grow(d.raw, int(f.rawLen), maxChunkBytes)
	switch err := d.inf.inflate(d.raw, disk); {
	case err == errInflateOverrun:
		return nil, fmt.Errorf("trace: offset %d: chunk inflates past its declared %d bytes: %w", f.payloadStart, f.rawLen, ErrCorrupt)
	case err != nil:
		return nil, fmt.Errorf("trace: offset %d: inflating chunk: %w: %w", f.payloadStart, err, ErrCorrupt)
	}
	return d.raw, nil
}

// checkStreamFooter parses the trailing index and cross-checks it against
// what the sequential pass actually decoded. A clean match ends the stream
// with io.EOF.
func checkStreamFooter(c *countingReader, seen []chunkIndexEntry, totalRecs int) error {
	nChunks, err := c.uvarint("footer chunk count")
	if err != nil {
		return err
	}
	if nChunks != uint64(len(seen)) {
		return fmt.Errorf("trace: offset %d: footer indexes %d chunks, stream held %d: %w", c.off, nChunks, len(seen), ErrCorrupt)
	}
	for i := range seen {
		recs, err := c.uvarintAt("footer chunk %d records", i)
		if err != nil {
			return err
		}
		diskBytes, err := c.uvarintAt("footer chunk %d disk bytes", i)
		if err != nil {
			return err
		}
		if recs != seen[i].records || diskBytes != seen[i].diskBytes {
			return fmt.Errorf("trace: offset %d: footer chunk %d is (%d recs, %d B), stream held (%d, %d): %w",
				c.off, i, recs, diskBytes, seen[i].records, seen[i].diskBytes, ErrCorrupt)
		}
	}
	total, err := c.uvarint("footer total records")
	if err != nil {
		return err
	}
	if total != uint64(totalRecs) {
		return fmt.Errorf("trace: offset %d: footer says %d records, stream held %d: %w", c.off, total, totalRecs, ErrCorrupt)
	}
	if _, err := c.u32("footer length"); err != nil {
		return err
	}
	magic, err := c.u32("footer magic")
	if err != nil {
		return err
	}
	if magic != footerMagic {
		return fmt.Errorf("trace: offset %d: bad footer magic %#x: %w", c.off-4, magic, ErrCorrupt)
	}
	return io.EOF
}

// chunkFieldErr reports a malformed varint field. It is a plain function
// rather than a closure so the decode loop's byte cursor stays in a
// register instead of being spilled for capture.
func chunkFieldErr(fileOff int64, rec int, what string, pos int) error {
	return fmt.Errorf("trace: offset %d: record %d %s (chunk byte %d): %w",
		fileOff, rec, what, pos, ErrCorrupt)
}

// decodeChunkPayload decodes count records from one chunk's raw payload
// into buf (grown as needed), returning the record slice and the last
// period. lastOff must hold one zeroed slot per area; recBase and fileOff
// only feed error messages. The varint loop is hand-rolled: this is the
// replay pipeline's decode hot path, and one-byte varints (the common case
// for period deltas, tags and sizes) must not pay binary.Uvarint's full
// loop or a closure call per field.
func decodeChunkPayload(payload []byte, count int, basePeriod uint64, areas []Area, lastOff []uint64, buf []Record, recBase int, fileOff int64) ([]Record, uint64, error) {
	recs := grow(buf, count, maxChunkRecords)
	nAreas := uint64(len(areas))
	lastPeriod := basePeriod
	pos := 0
	for i := 0; i < count; i++ {
		// Field 1: period delta.
		var v uint64
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
			pos++
		} else {
			var n int
			if v, n = binary.Uvarint(payload[pos:]); n <= 0 {
				return nil, 0, chunkFieldErr(fileOff, recBase+i, "period delta", pos)
			} else {
				pos += n
			}
		}
		if lastPeriod+v < lastPeriod {
			return nil, 0, fmt.Errorf("trace: offset %d: record %d period goes backwards (%d < %d): %w",
				fileOff, recBase+i, lastPeriod+v, lastPeriod, ErrCorrupt)
		}
		lastPeriod += v

		// Field 2: tag = area<<1 | op.
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
			pos++
		} else {
			var n int
			if v, n = binary.Uvarint(payload[pos:]); n <= 0 {
				return nil, 0, chunkFieldErr(fileOff, recBase+i, "tag", pos)
			} else {
				pos += n
			}
		}
		area := v >> 1
		op := Op(v & 1)
		if area >= nAreas {
			return nil, 0, fmt.Errorf("trace: offset %d: record %d references area %d of %d: %w",
				fileOff, recBase+i, area, nAreas, ErrCorrupt)
		}

		// Field 3: zigzag offset delta.
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
			pos++
		} else {
			var n int
			if v, n = binary.Uvarint(payload[pos:]); n <= 0 {
				return nil, 0, chunkFieldErr(fileOff, recBase+i, "offset delta", pos)
			} else {
				pos += n
			}
		}
		off := lastOff[area] + uint64(unzigzag(v))
		lastOff[area] = off

		// Field 4: size.
		if pos < len(payload) && payload[pos] < 0x80 {
			v = uint64(payload[pos])
			pos++
		} else {
			var n int
			if v, n = binary.Uvarint(payload[pos:]); n <= 0 {
				return nil, 0, chunkFieldErr(fileOff, recBase+i, "size", pos)
			} else {
				pos += n
			}
		}
		size := uint32(v)
		if v == 0 || v > uint64(^uint32(0)) {
			return nil, 0, chunkFieldErr(fileOff, recBase+i, "size (zero or oversized)", pos)
		}
		if end := off + uint64(size); end > areas[area].Size || end < off {
			return nil, 0, fmt.Errorf("trace: offset %d: record %d overruns area %q (%d+%d > %d): %w",
				fileOff, recBase+i, areas[area].Name, off, size, areas[area].Size, ErrCorrupt)
		}
		// Field by field: a composite literal is built on the stack and
		// copied with wide loads that stall on its narrow stores.
		r := &recs[i]
		r.Period = lastPeriod
		r.Offset = off
		r.Size = size
		r.Area = uint16(area) // area < nAreas <= maxAreas
		r.Op = op
	}
	if pos != len(payload) {
		return nil, 0, fmt.Errorf("trace: offset %d: chunk has %d trailing payload bytes after %d records: %w",
			fileOff, len(payload)-pos, count, ErrCorrupt)
	}
	return recs, lastPeriod, nil
}

type chunkIndexEntry struct {
	records   uint64
	diskBytes uint64
}

// StreamOptions tunes the v2 writer. The zero value is the default:
// DefaultChunkRecords per chunk, DEFLATE-compressed payloads.
type StreamOptions struct {
	// ChunkRecords caps records per chunk (0 = DefaultChunkRecords).
	ChunkRecords int
	// NoCompress stores chunk payloads raw. Decoding raw chunks is
	// cheaper; the on-disk image is a few times larger.
	NoCompress bool
}

// StreamWriter emits the v2 format incrementally. Write appends each
// record's varints to the open chunk; a full chunk is compressed on its own
// goroutine while the caller fills the next, and the caller's goroutine
// writes finished chunks to w in stream order, so every call on w and every
// footer entry happens on the caller's goroutine. The writer holds at most
// GOMAXPROCS+1 chunks — the open one and up to GOMAXPROCS being compressed
// or waiting to be written — so a capture as large as the disk never
// materializes in memory; a chunk reaches w once a later one needs its
// slot, and Close writes what is left, then the footer index. After a
// write to w fails, the writer waits for its in-flight chunks and returns
// that error from every later Write and from Close.
type StreamWriter struct {
	bw        *bufio.Writer
	areas     []Area
	chunkRecs int
	compress  bool

	// ring[open] is the chunk being filled; the busy chunks before it,
	// the oldest at ring[(open-busy) mod len(ring)], are being compressed
	// or wait to be written.
	ring []encSlot
	open int
	busy int

	count      int    // records in the open chunk
	basePeriod uint64 // last period committed before the open chunk
	lastPeriod uint64
	lastOff    []uint64
	index      []chunkIndexEntry
	total      int
	writes     int
	scratch    [4*binary.MaxVarintLen64 + 1]byte // a frame header: four varints and the codec
	closed     bool
	err        error // first failed write to w; sticky
}

// encSlot is one chunk of the writer's ring. The caller fills payload and
// the frame fields and starts encode on a new goroutine, which fills codec,
// out and err and signals done; the caller writes out only after receiving
// from done, which orders every field access between the two.
type encSlot struct {
	payload    []byte // the chunk's raw varints
	count      int
	basePeriod uint64

	deflated bytes.Buffer
	deflater *flate.Writer
	codec    byte
	out      []byte // payload or deflated's bytes: what goes to disk
	err      error
	done     chan struct{}
}

// encode compresses the slot's payload when compress is set, keeping it
// raw if deflate doesn't shrink it (tiny chunks), and signals done.
func (s *encSlot) encode(compress bool) {
	s.codec, s.out, s.err = codecRaw, s.payload, nil
	if compress {
		s.deflated.Reset()
		if s.deflater == nil {
			s.deflater, s.err = flate.NewWriter(&s.deflated, flate.BestSpeed)
		} else {
			s.deflater.Reset(&s.deflated)
		}
		if s.err == nil {
			_, s.err = s.deflater.Write(s.payload)
		}
		if s.err == nil {
			s.err = s.deflater.Close()
		}
		if s.err == nil && s.deflated.Len() < len(s.payload) {
			s.codec, s.out = codecFlate, s.deflated.Bytes()
		}
	}
	s.done <- struct{}{}
}

// NewStreamWriter starts a v2 image on w with the given header. The areas
// must be final: the chunk encoder's per-area delta state is sized here.
func NewStreamWriter(w io.Writer, benchmark string, areas []Area, opt StreamOptions) (*StreamWriter, error) {
	if err := ValidateHeader(benchmark, areas); err != nil {
		return nil, err
	}
	header, err := appendHeader(nil, formatVer2, benchmark, areas)
	if err != nil {
		return nil, err
	}
	chunkRecs := opt.ChunkRecords
	if chunkRecs <= 0 {
		chunkRecs = DefaultChunkRecords
	}
	if chunkRecs > maxChunkRecords {
		return nil, fmt.Errorf("trace: chunk size %d exceeds limit %d", chunkRecs, maxChunkRecords)
	}
	sw := &StreamWriter{
		bw:        bufio.NewWriterSize(w, 1<<16),
		areas:     append([]Area(nil), areas...),
		chunkRecs: chunkRecs,
		compress:  !opt.NoCompress,
		ring:      make([]encSlot, runtime.GOMAXPROCS(0)+1),
		lastOff:   make([]uint64, len(areas)),
	}
	for i := range sw.ring {
		sw.ring[i].done = make(chan struct{}, 1)
	}
	if _, err := sw.bw.Write(header); err != nil {
		return nil, err
	}
	return sw, nil
}

// appendUvarint is binary.AppendUvarint with the one-byte case inline: most
// period deltas, tags and sizes fit in one byte.
func appendUvarint(p []byte, v uint64) []byte {
	if v < 0x80 {
		return append(p, byte(v))
	}
	return binary.AppendUvarint(p, v)
}

// Write appends one record, validating it against the header. Records must
// arrive in period order, exactly as a Validate-clean image would hold
// them. A rejected record leaves the writer as it was.
func (sw *StreamWriter) Write(rec Record) error {
	if sw.closed {
		return errors.New("trace: write to closed stream writer")
	}
	if sw.err != nil {
		return sw.err
	}
	// The happy path is a handful of inline branches; only a bad record
	// drops to validateRecord for the precise error text.
	if end := rec.Offset + uint64(rec.Size); int(rec.Area) >= len(sw.areas) || rec.Size == 0 ||
		rec.Period < sw.lastPeriod || rec.Op > Write || end > sw.areas[rec.Area].Size || end < rec.Offset {
		return validateRecord(rec, sw.areas, sw.lastPeriod, sw.total)
	}
	s := &sw.ring[sw.open]
	p := appendUvarint(s.payload, rec.Period-sw.lastPeriod)
	p = appendUvarint(p, uint64(rec.Area)<<1|uint64(rec.Op))
	p = appendUvarint(p, zigzag(int64(rec.Offset-sw.lastOff[rec.Area])))
	s.payload = appendUvarint(p, uint64(rec.Size))
	sw.lastPeriod = rec.Period
	sw.lastOff[rec.Area] = rec.Offset
	sw.count++
	sw.total++
	if rec.Op == Write {
		sw.writes++
	}
	if sw.count >= sw.chunkRecs {
		return sw.submit()
	}
	return nil
}

// submit hands the open chunk to its encode goroutine and opens the next
// slot, first writing out the chunk that holds it when the ring is full;
// the delta state resets for the new chunk.
func (sw *StreamWriter) submit() error {
	s := &sw.ring[sw.open]
	s.count, s.basePeriod = sw.count, sw.basePeriod
	go s.encode(sw.compress)
	sw.busy++
	sw.open = (sw.open + 1) % len(sw.ring)
	sw.basePeriod = sw.lastPeriod
	sw.count = 0
	clear(sw.lastOff)
	if sw.busy == len(sw.ring) {
		if err := sw.emit(); err != nil {
			return err
		}
	}
	sw.ring[sw.open].payload = sw.ring[sw.open].payload[:0]
	return nil
}

// emit waits for the oldest busy chunk and writes it: frame header,
// payload, index entry.
func (sw *StreamWriter) emit() error {
	s := &sw.ring[(sw.open-sw.busy+len(sw.ring))%len(sw.ring)]
	<-s.done
	sw.busy--
	if s.err != nil {
		return sw.fail(s.err)
	}
	h := binary.AppendUvarint(sw.scratch[:0], uint64(s.count))
	h = append(h, s.codec)
	h = binary.AppendUvarint(h, s.basePeriod)
	h = binary.AppendUvarint(h, uint64(len(s.payload)))
	h = binary.AppendUvarint(h, uint64(len(s.out)))
	if _, err := sw.bw.Write(h); err != nil {
		return sw.fail(err)
	}
	if _, err := sw.bw.Write(s.out); err != nil {
		return sw.fail(err)
	}
	sw.index = append(sw.index, chunkIndexEntry{records: uint64(s.count), diskBytes: uint64(len(s.out))})
	return nil
}

// fail records err as the writer's sticky error once every in-flight
// chunk has finished, so an abandoned writer leaves no goroutine behind.
func (sw *StreamWriter) fail(err error) error {
	for ; sw.busy > 0; sw.busy-- {
		<-sw.ring[(sw.open-sw.busy+len(sw.ring))%len(sw.ring)].done
	}
	sw.err = err
	return err
}

// Close submits the tail chunk, writes every chunk still in the ring, the
// terminator and the footer index, and flushes the buffered writer. It
// does not close the underlying writer. A second Close returns nil; Write
// after Close fails.
func (sw *StreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if sw.err != nil {
		return sw.err
	}
	if sw.count > 0 {
		if err := sw.submit(); err != nil {
			return err
		}
	}
	for sw.busy > 0 {
		if err := sw.emit(); err != nil {
			return err
		}
	}
	// The chunk terminator (a zero record count), then the footer index,
	// its length without the terminator, and the footer magic.
	out := binary.AppendUvarint([]byte{0}, uint64(len(sw.index)))
	for _, e := range sw.index {
		out = binary.AppendUvarint(out, e.records)
		out = binary.AppendUvarint(out, e.diskBytes)
	}
	out = binary.AppendUvarint(out, uint64(sw.total))
	out = binary.LittleEndian.AppendUint32(out, uint32(len(out)-1))
	out = binary.LittleEndian.AppendUint32(out, footerMagic)
	if _, err := sw.bw.Write(out); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// Count returns the records written so far.
func (sw *StreamWriter) Count() int { return sw.total }

// Mix reports the read/write percentages of the records written so far.
func (sw *StreamWriter) Mix() (readPct, writePct float64) {
	if sw.total == 0 {
		return 0, 0
	}
	writePct = 100 * float64(sw.writes) / float64(sw.total)
	return 100 - writePct, writePct
}

// EncodeV2 writes a materialized image in the v2 chunked format.
func EncodeV2(w io.Writer, img *Image, opt StreamOptions) error {
	if err := img.Validate(); err != nil {
		return err
	}
	sw, err := NewStreamWriter(w, img.Benchmark, img.Areas, opt)
	if err != nil {
		return err
	}
	for _, rec := range img.Records {
		if err := sw.Write(rec); err != nil {
			return err
		}
	}
	return sw.Close()
}

// CopyStream drains src into sink. It is the convert primitive: v1→v2
// re-encoding without materializing the trace.
func CopyStream(sink RecordSink, src RecordSource) (int, error) {
	n := 0
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		for _, rec := range batch {
			if err := sink.Write(rec); err != nil {
				return n, err
			}
			n++
		}
	}
}
