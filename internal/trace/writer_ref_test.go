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
	"testing"
	"time"
)

// refStreamWriter is the serial v2 writer StreamWriter is tested against:
// one bytes.Buffer write per varint, each full chunk compressed and written
// on the caller's goroutine before the next record is accepted. It is the
// writer StreamWriter replaced, kept unchanged as the oracle for the
// output bytes, Count, Mix and validation errors (see FuzzStreamWriter).
type refStreamWriter struct {
	bw        *bufio.Writer
	areas     []Area
	chunkRecs int
	compress  bool

	payload    bytes.Buffer
	deflated   bytes.Buffer
	deflater   *flate.Writer
	count      int
	basePeriod uint64 // last period committed before the open chunk
	lastPeriod uint64
	lastOff    []uint64
	index      []chunkIndexEntry
	total      int
	writes     int
	scratch    [binary.MaxVarintLen64]byte
	closed     bool
}

// newRefStreamWriter starts a v2 image on w with the given header. The areas
// must be final: the chunk encoder's per-area delta state is sized here.
func newRefStreamWriter(w io.Writer, benchmark string, areas []Area, opt StreamOptions) (*refStreamWriter, error) {
	if err := ValidateHeader(benchmark, areas); err != nil {
		return nil, err
	}
	if len(benchmark) > maxNameBytes {
		return nil, fmt.Errorf("trace: name %q too long", benchmark)
	}
	for _, a := range areas {
		if len(a.Name) > maxNameBytes {
			return nil, fmt.Errorf("trace: name %q too long", a.Name)
		}
	}
	chunkRecs := opt.ChunkRecords
	if chunkRecs <= 0 {
		chunkRecs = DefaultChunkRecords
	}
	if chunkRecs > maxChunkRecords {
		return nil, fmt.Errorf("trace: chunk size %d exceeds limit %d", chunkRecs, maxChunkRecords)
	}
	sw := &refStreamWriter{
		bw:        bufio.NewWriterSize(w, 1<<16),
		areas:     append([]Area(nil), areas...),
		chunkRecs: chunkRecs,
		compress:  !opt.NoCompress,
		lastOff:   make([]uint64, len(areas)),
	}
	if err := sw.writeHeader(benchmark); err != nil {
		return nil, err
	}
	return sw, nil
}

func (sw *refStreamWriter) putU32(v uint32) error {
	binary.LittleEndian.PutUint32(sw.scratch[:4], v)
	_, err := sw.bw.Write(sw.scratch[:4])
	return err
}

func (sw *refStreamWriter) putUvarint(v uint64) error {
	n := binary.PutUvarint(sw.scratch[:], v)
	_, err := sw.bw.Write(sw.scratch[:n])
	return err
}

func (sw *refStreamWriter) putString(s string) error {
	if err := sw.bw.WriteByte(byte(len(s))); err != nil {
		return err
	}
	_, err := sw.bw.WriteString(s)
	return err
}

func (sw *refStreamWriter) writeHeader(benchmark string) error {
	if err := sw.putU32(formatMagic); err != nil {
		return err
	}
	if err := sw.putU32(formatVer2); err != nil {
		return err
	}
	if err := sw.putString(benchmark); err != nil {
		return err
	}
	if err := sw.putUvarint(uint64(len(sw.areas))); err != nil {
		return err
	}
	for _, a := range sw.areas {
		if err := sw.putString(a.Name); err != nil {
			return err
		}
		if err := sw.putUvarint(a.Size); err != nil {
			return err
		}
		var flags byte
		if a.NVM {
			flags |= 1
		}
		if a.Write {
			flags |= 2
		}
		if err := sw.bw.WriteByte(flags); err != nil {
			return err
		}
	}
	return nil
}

// Write appends one record, validating it against the header. Records must
// arrive in period order, exactly as a Validate-clean image would hold
// them.
func (sw *refStreamWriter) Write(rec Record) error {
	if sw.closed {
		return errors.New("trace: write to closed stream writer")
	}
	if err := validateRecord(rec, sw.areas, sw.lastPeriod, sw.total); err != nil {
		return err
	}
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		sw.payload.Write(tmp[:n])
	}
	put(rec.Period - sw.lastPeriod)
	sw.lastPeriod = rec.Period
	put(uint64(rec.Area)<<1 | uint64(rec.Op))
	put(zigzag(int64(rec.Offset - sw.lastOff[rec.Area])))
	sw.lastOff[rec.Area] = rec.Offset
	put(uint64(rec.Size))
	sw.count++
	sw.total++
	if rec.Op == Write {
		sw.writes++
	}
	if sw.count >= sw.chunkRecs {
		return sw.flushChunk()
	}
	return nil
}

// flushChunk commits the open chunk: frame header, (optionally deflated)
// payload, index entry; then resets the delta state for the next chunk.
func (sw *refStreamWriter) flushChunk() error {
	if sw.count == 0 {
		return nil
	}
	rawLen := sw.payload.Len()
	codec := byte(codecRaw)
	out := sw.payload.Bytes()
	if sw.compress {
		sw.deflated.Reset()
		if sw.deflater == nil {
			var err error
			if sw.deflater, err = flate.NewWriter(&sw.deflated, flate.BestSpeed); err != nil {
				return err
			}
		} else {
			sw.deflater.Reset(&sw.deflated)
		}
		if _, err := sw.deflater.Write(out); err != nil {
			return err
		}
		if err := sw.deflater.Close(); err != nil {
			return err
		}
		// Keep the raw payload if deflate didn't help (tiny chunks).
		if sw.deflated.Len() < rawLen {
			codec = codecFlate
			out = sw.deflated.Bytes()
		}
	}
	if err := sw.putUvarint(uint64(sw.count)); err != nil {
		return err
	}
	if err := sw.bw.WriteByte(codec); err != nil {
		return err
	}
	if err := sw.putUvarint(sw.basePeriod); err != nil {
		return err
	}
	if err := sw.putUvarint(uint64(rawLen)); err != nil {
		return err
	}
	if err := sw.putUvarint(uint64(len(out))); err != nil {
		return err
	}
	if _, err := sw.bw.Write(out); err != nil {
		return err
	}
	sw.index = append(sw.index, chunkIndexEntry{records: uint64(sw.count), diskBytes: uint64(len(out))})
	sw.basePeriod = sw.lastPeriod
	sw.count = 0
	sw.payload.Reset()
	clear(sw.lastOff)
	return nil
}

// Close flushes the tail chunk, writes the terminator and footer index,
// and flushes the buffered writer. It does not close the underlying
// writer. Close is not idempotent-safe for further Writes.
func (sw *refStreamWriter) Close() error {
	if sw.closed {
		return nil
	}
	sw.closed = true
	if err := sw.flushChunk(); err != nil {
		return err
	}
	if err := sw.putUvarint(0); err != nil {
		return err
	}
	var footer bytes.Buffer
	var tmp [binary.MaxVarintLen64]byte
	put := func(v uint64) {
		n := binary.PutUvarint(tmp[:], v)
		footer.Write(tmp[:n])
	}
	put(uint64(len(sw.index)))
	for _, e := range sw.index {
		put(e.records)
		put(e.diskBytes)
	}
	put(uint64(sw.total))
	if _, err := sw.bw.Write(footer.Bytes()); err != nil {
		return err
	}
	if err := sw.putU32(uint32(footer.Len())); err != nil {
		return err
	}
	if err := sw.putU32(footerMagic); err != nil {
		return err
	}
	return sw.bw.Flush()
}

// Count returns the records written so far.
func (sw *refStreamWriter) Count() int { return sw.total }

// Mix reports the read/write percentages of the records written so far.
func (sw *refStreamWriter) Mix() (readPct, writePct float64) {
	if sw.total == 0 {
		return 0, 0
	}
	writePct = 100 * float64(sw.writes) / float64(sw.total)
	return 100 - writePct, writePct
}

// fuzzWriterAreas is the header every FuzzStreamWriter program writes
// against: areas small enough that byte-sized offsets reach their ends.
var fuzzWriterAreas = []Area{
	{Name: "heap", Size: 1 << 20, NVM: true, Write: true},
	{Name: "page", Size: 4096, NVM: true},
	{Name: "stack", Size: 64, Write: true},
}

// fuzzChunkSizes are the chunk sizes a program's first byte picks from:
// one record per chunk, a tiny odd size, 4,096 and the default.
var fuzzChunkSizes = [4]int{1, 7, 4096, 0}

// writerProgram decodes a FuzzStreamWriter byte program. Byte 0 picks the
// chunk size (bits 0-1) and NoCompress (bit 2); bytes 1-3 are the failing
// writer's byte budget. Each following group of four bytes is an opcode
// and three operand bytes: opcode%8 = 0 writes a record in an area past
// the table, 1 one of zero size, 2 one whose period goes backwards (an
// area past the table before the first valid record), 3 a run of
// 256·(operand 3 + 1) valid records, enough to fill default chunks, and
// anything else one valid record built from the operands.
func writerProgram(data []byte) (opt StreamOptions, failAt uint64, recs []Record) {
	at := func(i int) byte {
		if i < len(data) {
			return data[i]
		}
		return 0
	}
	opt = StreamOptions{ChunkRecords: fuzzChunkSizes[at(0)%4], NoCompress: at(0)&4 != 0}
	failAt = uint64(at(1)) | uint64(at(2))<<8 | uint64(at(3))<<16
	// Tiny chunks start a goroutine every record or seven: keep those
	// programs short.
	limit := 1 << 17
	if opt.ChunkRecords == 1 || opt.ChunkRecords == 7 {
		limit = 1 << 12
	}
	var last uint64 // period of the last valid record
	valid := func(b0, b1, b2 byte) Record {
		a := int(b1) % len(fuzzWriterAreas)
		size := 1 + uint64(b2)%min(fuzzWriterAreas[a].Size, 64)
		off := (uint64(b1)*8191 + uint64(b2)*131) % (fuzzWriterAreas[a].Size - size + 1)
		last += uint64(b0>>5) * uint64(b0>>5) * 37 // multi-byte deltas too
		return Record{Period: last, Offset: off, Op: Op(b0 & 1), Size: uint32(size), Area: uint16(a)}
	}
	bad := uint16(len(fuzzWriterAreas))
	for i := 4; i+3 < len(data) && len(recs) < limit; i += 4 {
		b0, b1, b2 := data[i+1], data[i+2], data[i+3]
		switch data[i] % 8 {
		case 0:
			recs = append(recs, Record{Period: last, Size: 1, Area: bad + uint16(b2)})
		case 1:
			recs = append(recs, Record{Period: last, Area: uint16(int(b1) % len(fuzzWriterAreas))})
		case 2:
			if last == 0 {
				recs = append(recs, Record{Size: 1, Area: bad})
			} else {
				recs = append(recs, Record{Period: last - 1, Size: 1})
			}
		case 3:
			for n := 0; n < (int(b2)+1)*256; n++ {
				recs = append(recs, valid(byte(n)<<5|b0&1, b1+byte(n), b2^byte(n>>3)))
			}
		default:
			recs = append(recs, valid(b0, b1, b2))
		}
	}
	return opt, failAt, recs
}

// writerFuzzSeeds are FuzzStreamWriter's starting programs; the same set is
// checked in under testdata/fuzz/FuzzStreamWriter.
func writerFuzzSeeds() [][]byte {
	mixed := []byte{
		4, 0, 0, 0,
		4, 0x41, 0, 9,
		4, 0x80, 1, 3,
		0, 0, 0, 2,
		4, 0xe1, 2, 5,
		1, 0, 1, 0,
		2, 0, 0, 0,
		4, 0x40, 0, 60,
		5, 0x21, 4, 200,
		6, 0xff, 7, 1,
		7, 0x00, 3, 17,
	}
	chunked := func(sel byte, fail uint16, prog ...byte) []byte {
		return append([]byte{sel, byte(fail), byte(fail >> 8), 0}, prog...)
	}
	return [][]byte{
		{},
		chunked(3, 0),
		chunked(1, 64, mixed[4:]...),
		chunked(1|4, 300, mixed[4:]...),
		chunked(0, 10, mixed[4:]...),
		chunked(0|4, 5000, append([]byte{3, 0x41, 1, 3}, mixed[4:]...)...),
		chunked(2, 1000, 3, 0x41, 7, 15, 4, 0x80, 1, 3, 3, 0x20, 9, 40),
		chunked(2|4, 40000, 3, 0x41, 7, 15, 2, 0, 0, 0, 3, 0x20, 9, 40),
		chunked(3, 60000, 3, 0x41, 7, 255, 1, 0, 1, 0, 4, 0x80, 1, 3),
		chunked(3|4, 65535, 3, 0x41, 7, 255, 0, 0, 0, 9, 3, 0x61, 2, 10),
	}
}

var errWriterFailed = errors.New("writer failed")

// failWriter accepts left bytes, then fails every write.
type failWriter struct{ left uint64 }

func (w *failWriter) Write(p []byte) (int, error) {
	if uint64(len(p)) <= w.left {
		w.left -= uint64(len(p))
		return len(p), nil
	}
	n := int(w.left)
	w.left = 0
	return n, errWriterFailed
}

func refMix(ref *refStreamWriter) [2]float64 {
	r, w := ref.Mix()
	return [2]float64{r, w}
}

// sameErr reports whether two errors are both nil or carry the same text.
func sameErr(a, b error) bool {
	return (a == nil) == (b == nil) && (a == nil || a.Error() == b.Error())
}

// waitGoroutines fails unless the goroutine count falls back to base: an
// encode goroutine signals its chunk done just before it returns.
func waitGoroutines(t *testing.T, base int, what string) {
	t.Helper()
	for i := 0; runtime.NumGoroutine() > base; i++ {
		if i == 1000 {
			t.Fatalf("%s: %d goroutines running, %d before the writer", what, runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

// FuzzStreamWriter runs one byte program (see writerProgram) through
// StreamWriter and the serial refStreamWriter. Writing to a writer that
// never fails, every Write must return the reference's error (the record
// index and text of each rejected record), and Count, Mix, Close, a Write
// after Close and the output bytes must match. Writing to one that fails
// inside the image, Write or Close must return an error wrapping that
// failure, every Write after it and Close too, and in both runs no
// goroutine may outlive the writer.
func FuzzStreamWriter(f *testing.F) {
	for _, s := range writerFuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		opt, failAt, recs := writerProgram(data)
		base := runtime.NumGoroutine()
		var want, got bytes.Buffer
		ref, err := newRefStreamWriter(&want, "fuzz", fuzzWriterAreas, opt)
		if err != nil {
			t.Fatal(err)
		}
		sw, err := NewStreamWriter(&got, "fuzz", fuzzWriterAreas, opt)
		if err != nil {
			t.Fatal(err)
		}
		for i, rec := range recs {
			if werr, gerr := ref.Write(rec), sw.Write(rec); !sameErr(gerr, werr) {
				t.Fatalf("record %d %+v: Write err %v, reference %v", i, rec, gerr, werr)
			}
		}
		if sw.Count() != ref.Count() {
			t.Fatalf("Count %d, reference %d", sw.Count(), ref.Count())
		}
		if r, w := sw.Mix(); [2]float64{r, w} != refMix(ref) {
			t.Fatalf("Mix %v/%v, reference %v", r, w, refMix(ref))
		}
		if werr, gerr := ref.Close(), sw.Close(); !sameErr(gerr, werr) || gerr != nil {
			t.Fatalf("Close err %v, reference %v", gerr, werr)
		}
		if werr, gerr := ref.Write(Record{}), sw.Write(Record{}); !sameErr(gerr, werr) {
			t.Fatalf("Write after Close err %v, reference %v", gerr, werr)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("output differs from the reference: %d bytes, reference %d", got.Len(), want.Len())
		}
		waitGoroutines(t, base, "after Close")

		budget := failAt % uint64(want.Len())
		fw := &failWriter{left: budget}
		sw, err = NewStreamWriter(fw, "fuzz", fuzzWriterAreas, opt)
		if err != nil {
			t.Fatal(err)
		}
		var failed error
		for i, rec := range recs {
			err := sw.Write(rec)
			if failed != nil && !errors.Is(err, errWriterFailed) {
				t.Fatalf("record %d: Write after %v returned %v", i, failed, err)
			}
			if failed == nil && errors.Is(err, errWriterFailed) {
				failed = err
			}
		}
		if err := sw.Close(); !errors.Is(err, errWriterFailed) {
			t.Fatalf("Close after a writer failing at byte %d returned %v (Write failure: %v)", budget, err, failed)
		}
		waitGoroutines(t, base, "after a failed write")
	})
}
