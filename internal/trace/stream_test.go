package trace

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"runtime"
	"testing"
	"unsafe"
)

// mkImage builds a deterministic two-area image with n records mixing
// strided and pseudo-random offsets, period plateaus, and both ops.
func mkImage(n int) *Image {
	img := &Image{
		Benchmark: "stream",
		Areas:     mkAreas(),
		Records:   make([]Record, 0, n),
	}
	var period uint64
	for i := 0; i < n; i++ {
		rec := mkRecord(i, period)
		period = rec.Period
		img.Records = append(img.Records, rec)
	}
	return img
}

// mkAreas is mkImage's area table.
func mkAreas() []Area {
	return []Area{
		{Name: "heap0", Size: 1 << 24, NVM: true, Write: true},
		{Name: "stack", Size: 1 << 16, Write: true},
	}
}

// mkRecord returns record i of mkImage's stream, given the period of
// record i-1 (0 for the first).
func mkRecord(i int, period uint64) Record {
	if i%3 != 0 {
		period += uint64(i%5) + 1
	}
	rec := Record{
		Period: period,
		Op:     Op(i % 2),
		Size:   uint32(4 << (i % 4)),
		Area:   uint16(i % 2),
	}
	if rec.Area == 0 {
		rec.Offset = (uint64(i) * 2654435761) % (1<<24 - 64)
	} else {
		rec.Offset = uint64(i*8) % (1<<16 - 64)
	}
	return rec
}

func drain(t *testing.T, src RecordSource) []Record {
	t.Helper()
	var out []Record
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("draining source: %v", err)
		}
		out = append(out, batch...)
	}
}

func sameRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v, want %+v", i, got[i], want[i])
		}
	}
}

func TestV2RoundTrip(t *testing.T) {
	img := mkImage(1000)
	for _, tc := range []struct {
		name string
		opt  StreamOptions
	}{
		{"default", StreamOptions{}},
		{"raw", StreamOptions{NoCompress: true}},
		{"chunk1", StreamOptions{ChunkRecords: 1}},
		{"chunk7", StreamOptions{ChunkRecords: 7}},
		{"chunk1000", StreamOptions{ChunkRecords: 1000}}, // exact multiple
		{"chunk7raw", StreamOptions{ChunkRecords: 7, NoCompress: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var buf bytes.Buffer
			if err := EncodeV2(&buf, img, tc.opt); err != nil {
				t.Fatal(err)
			}
			got, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if got.Benchmark != img.Benchmark {
				t.Fatalf("benchmark %q", got.Benchmark)
			}
			for i := range img.Areas {
				if got.Areas[i] != img.Areas[i] {
					t.Fatalf("area %d mismatch", i)
				}
			}
			sameRecords(t, got.Records, img.Records)
		})
	}
}

// TestV1V2Equivalence pins the satellite requirement: the same image
// encoded in both formats yields byte-wise identical records through
// RecordSource.
func TestV1V2Equivalence(t *testing.T) {
	img := mkImage(5000)
	var v1, v2 bytes.Buffer
	if err := Encode(&v1, img); err != nil {
		t.Fatal(err)
	}
	if err := EncodeV2(&v2, img, StreamOptions{ChunkRecords: 512}); err != nil {
		t.Fatal(err)
	}

	s1, err := OpenStream(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	s2, err := OpenStream(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if s1.Benchmark() != s2.Benchmark() || len(s1.Areas()) != len(s2.Areas()) {
		t.Fatal("headers disagree")
	}
	if s1.Total() != len(img.Records) || s2.Total() != len(img.Records) {
		t.Fatalf("totals %d/%d, want %d", s1.Total(), s2.Total(), len(img.Records))
	}
	r1 := drain(t, s1)
	r2 := drain(t, s2)
	sameRecords(t, r1, r2)
	sameRecords(t, r1, img.Records)
}

func TestOpenStreamV1Batches(t *testing.T) {
	img := mkImage(3 * DefaultChunkRecords / 2) // forces two v1 batches
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	sameRecords(t, drain(t, src), img.Records)
}

// TestV1RefusesOverwideFields: the v1 decoder checks a record's size and
// area varints at full width, so size 2^32+8 and area 2^32 are refused,
// not read as size 8 and area 0.
func TestV1RefusesOverwideFields(t *testing.T) {
	seeds := v1OverwideSeeds()
	for i, want := range []string{
		"trace: record 0 has size 4294967304: corrupt trace",
		"trace: record 0 references area 4294967296 of 1: corrupt trace",
	} {
		if _, err := Decode(bytes.NewReader(seeds[i])); err == nil || err.Error() != want || !errors.Is(err, ErrCorrupt) {
			t.Errorf("Decode: err %v, want %q", err, want)
		}
		src, err := OpenStream(bytes.NewReader(seeds[i]))
		if err != nil {
			t.Fatal(err)
		}
		if recs, err := drainAll(src); len(recs) != 0 || err == nil || err.Error() != want {
			t.Errorf("OpenStream: %d records, err %v, want %q", len(recs), err, want)
		}
		src.Close()
	}
}

// nonSeeker hides the Seeker of a bytes.Reader, modelling a pipe.
type nonSeeker struct{ r io.Reader }

func (n nonSeeker) Read(p []byte) (int, error) { return n.r.Read(p) }

func TestV2Total(t *testing.T) {
	img := mkImage(321)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 100}); err != nil {
		t.Fatal(err)
	}
	seekable, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer seekable.Close()
	if seekable.Total() != 321 {
		t.Fatalf("seekable total %d, want 321", seekable.Total())
	}
	piped, err := OpenStream(nonSeeker{bytes.NewReader(buf.Bytes())})
	if err != nil {
		t.Fatal(err)
	}
	defer piped.Close()
	if piped.Total() != -1 {
		t.Fatalf("piped total %d, want -1 (unknown)", piped.Total())
	}
	sameRecords(t, drain(t, piped), img.Records)
}

func TestV2ZeroRecords(t *testing.T) {
	img := &Image{Benchmark: "empty", Areas: []Area{{Name: "a", Size: 4096}}}
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 0 || got.Benchmark != "empty" {
		t.Fatalf("got %+v", got)
	}
}

func TestStreamWriterRejectsBadRecords(t *testing.T) {
	areas := []Area{{Name: "a", Size: 4096, Write: true}}
	cases := []struct {
		name string
		rec  Record
	}{
		{"bad area", Record{Period: 1, Area: 7, Size: 8}},
		{"zero size", Record{Period: 1, Area: 0, Size: 0}},
		{"overrun", Record{Period: 1, Area: 0, Offset: 4090, Size: 8}},
		{"bad op", Record{Period: 1, Area: 0, Size: 8, Op: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw, err := NewStreamWriter(&bytes.Buffer{}, "b", areas, StreamOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := sw.Write(tc.rec); err == nil {
				t.Fatal("accepted")
			}
		})
	}
	t.Run("period regression", func(t *testing.T) {
		sw, err := NewStreamWriter(&bytes.Buffer{}, "b", areas, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(Record{Period: 9, Area: 0, Size: 8}); err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(Record{Period: 3, Area: 0, Size: 8}); err == nil {
			t.Fatal("backwards period accepted")
		}
	})
	t.Run("write after close", func(t *testing.T) {
		sw, err := NewStreamWriter(&bytes.Buffer{}, "b", areas, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		if err := sw.Write(Record{Period: 1, Area: 0, Size: 8}); err == nil {
			t.Fatal("write after close accepted")
		}
	})
}

func TestStreamWriterRejectsBadHeader(t *testing.T) {
	if _, err := NewStreamWriter(&bytes.Buffer{}, "", []Area{{Name: "a", Size: 1}}, StreamOptions{}); err == nil {
		t.Fatal("empty benchmark accepted")
	}
	if _, err := NewStreamWriter(&bytes.Buffer{}, "b", nil, StreamOptions{}); err == nil {
		t.Fatal("no areas accepted")
	}
	long := string(make([]byte, 300))
	if _, err := NewStreamWriter(&bytes.Buffer{}, long, []Area{{Name: "a", Size: 1}}, StreamOptions{}); err == nil {
		t.Fatal("long name accepted")
	}
}

// TestV2Truncation: every strict prefix of a v2 image must fail with a
// descriptive error — the trailing footer makes silent truncation
// impossible.
func TestV2Truncation(t *testing.T) {
	img := mkImage(300)
	for _, opt := range []StreamOptions{{ChunkRecords: 64}, {ChunkRecords: 64, NoCompress: true}} {
		var buf bytes.Buffer
		if err := EncodeV2(&buf, img, opt); err != nil {
			t.Fatal(err)
		}
		full := buf.Bytes()
		for cut := 0; cut < len(full); cut++ {
			img2, err := Decode(bytes.NewReader(full[:cut]))
			if err == nil {
				t.Fatalf("prefix of %d/%d bytes decoded to %d records", cut, len(full), len(img2.Records))
			}
		}
	}
}

func TestV2CorruptFooter(t *testing.T) {
	img := mkImage(100)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 32}); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	bad := append([]byte(nil), full...)
	bad[len(bad)-1] ^= 0xFF // footer magic
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("corrupt footer magic accepted")
	} else if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("error %v not tagged ErrCorrupt", err)
	}

	// A wrong total in the footer must be caught by the cross-check. The
	// total is the last uvarint before the 8 trailing bytes; 100 encodes
	// as one byte.
	bad = append([]byte(nil), full...)
	bad[len(bad)-9] = 99
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("wrong footer total accepted")
	}

	// So must a huge one, which the seekable open reads up front as the
	// stream's Total: nothing may be sized from it unchecked. 1<<60
	// encodes as nine bytes, eight more than the one it replaces.
	fLen := binary.LittleEndian.Uint32(full[len(full)-8:])
	bad = binary.AppendUvarint(append([]byte(nil), full[:len(full)-9]...), 1<<60)
	bad = binary.LittleEndian.AppendUint32(bad, fLen+8)
	bad = binary.LittleEndian.AppendUint32(bad, footerMagic)
	if _, err := Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("huge footer total accepted")
	}
}

func TestV2ErrorsNameOffsets(t *testing.T) {
	img := mkImage(50)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 16, NoCompress: true}); err != nil {
		t.Fatal(err)
	}
	_, err := Decode(bytes.NewReader(buf.Bytes()[:buf.Len()/2]))
	if err == nil {
		t.Fatal("truncated image decoded")
	}
	if want := "offset "; !bytes.Contains([]byte(err.Error()), []byte(want)) {
		t.Fatalf("error %q does not name a file offset", err)
	}
}

// TestStreamBufferReuse verifies the bounded-memory contract: however many
// chunks the stream holds, the decode pool cycles through at most one
// record buffer per ring slot (workers+2).
func TestStreamBufferReuse(t *testing.T) {
	img := mkImage(640)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("workers%d", workers), func(t *testing.T) {
			src, err := OpenStreamConfig(bytes.NewReader(buf.Bytes()), StreamConfig{DecodeWorkers: workers})
			if err != nil {
				t.Fatal(err)
			}
			defer src.Close()
			backing := map[*Record]bool{}
			for {
				batch, err := src.Next()
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				backing[&batch[:1][0]] = true
			}
			if len(backing) > workers+2 {
				t.Fatalf("decoder used %d distinct chunk buffers, want <= %d", len(backing), workers+2)
			}
		})
	}
}

func TestCloseMidStream(t *testing.T) {
	img := mkImage(2000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 100}); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := src.Next(); err != nil {
		t.Fatal(err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
	// Closing again is fine.
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCopyStreamConvert(t *testing.T) {
	img := mkImage(700)
	var v1 bytes.Buffer
	if err := Encode(&v1, img); err != nil {
		t.Fatal(err)
	}
	src, err := OpenStream(bytes.NewReader(v1.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	var v2 bytes.Buffer
	sw, err := NewStreamWriter(&v2, src.Benchmark(), src.Areas(), StreamOptions{ChunkRecords: 128})
	if err != nil {
		t.Fatal(err)
	}
	n, err := CopyStream(sw, src)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if n != len(img.Records) || sw.Count() != n {
		t.Fatalf("copied %d (writer %d), want %d", n, sw.Count(), len(img.Records))
	}
	got, err := Decode(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got.Records, img.Records)
}

func TestStreamWriterMix(t *testing.T) {
	img := mkImage(100)
	var buf bytes.Buffer
	sw, err := NewStreamWriter(&buf, img.Benchmark, img.Areas, StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range img.Records {
		if err := sw.Write(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	r1, w1 := img.Mix()
	r2, w2 := sw.Mix()
	if r1 != r2 || w1 != w2 {
		t.Fatalf("writer mix %v/%v, image mix %v/%v", r2, w2, r1, w1)
	}
}

// TestV2Smaller pins the size win: on a strided trace the compressed v2
// image must be several times smaller than v1.
func TestV2Smaller(t *testing.T) {
	img := &Image{Benchmark: "large", Areas: []Area{{Name: "a", Size: 1 << 20, Write: true}}}
	for i := 0; i < 100000; i++ {
		img.Records = append(img.Records, Record{
			Period: uint64(i),
			Offset: uint64(i*64) % (1 << 20),
			Op:     Op(i % 2),
			Size:   8,
			Area:   0,
		})
	}
	var v1, v2 bytes.Buffer
	if err := Encode(&v1, img); err != nil {
		t.Fatal(err)
	}
	if err := EncodeV2(&v2, img, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	if v2.Len()*2 >= v1.Len() {
		t.Fatalf("v2 %d bytes not at least 2x smaller than v1 %d bytes", v2.Len(), v1.Len())
	}
	got, err := Decode(bytes.NewReader(v2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got.Records, img.Records)
}

func TestImageSource(t *testing.T) {
	img := mkImage(10)
	src := NewImageSource(img)
	if src.Total() != 10 || src.Benchmark() != img.Benchmark {
		t.Fatal("header lost")
	}
	sameRecords(t, drain(t, src), img.Records)
	if _, err := src.Next(); err != io.EOF {
		t.Fatalf("got %v, want EOF after drain", err)
	}
	if err := src.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestV2OffsetDeltaWrap exercises offsets whose per-area deltas exceed
// int64 range in magnitude (wraparound arithmetic must round-trip).
func TestV2OffsetDeltaWrap(t *testing.T) {
	img := &Image{
		Benchmark: "wrap",
		Areas:     []Area{{Name: "huge", Size: ^uint64(0) - 1, Write: true}},
		Records: []Record{
			{Period: 1, Offset: 0, Size: 8},
			{Period: 2, Offset: 1 << 63, Size: 8, Op: Write},
			{Period: 3, Offset: 5, Size: 8},
			{Period: 4, Offset: ^uint64(0) - 16, Size: 8, Op: Write},
		},
	}
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{NoCompress: true}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sameRecords(t, got.Records, img.Records)
}

// BenchmarkV2Decode measures decoding a 200,000-record image: through the
// decode pool (OpenStream) with DEFLATE and raw chunks, and through one
// OpenRange over every chunk of a once-scanned index — the path each
// sharded-replay segment takes.
func BenchmarkV2Decode(b *testing.B) {
	img := mkImage(200_000)
	for _, tc := range []struct {
		name    string
		opt     StreamOptions
		inRange bool
	}{
		{"flate", StreamOptions{}, false},
		{"raw", StreamOptions{NoCompress: true}, false},
		{"range", StreamOptions{}, true},
	} {
		var buf bytes.Buffer
		if err := EncodeV2(&buf, img, tc.opt); err != nil {
			b.Fatal(err)
		}
		open := func() (RecordSource, error) { return OpenStream(bytes.NewReader(buf.Bytes())) }
		if tc.inRange {
			rd := bytes.NewReader(buf.Bytes())
			ix, err := ScanChunkIndex(rd)
			if err != nil {
				b.Fatal(err)
			}
			open = func() (RecordSource, error) { return ix.OpenRange(rd, 0, len(ix.Chunks)) }
		}
		b.Run(fmt.Sprintf("%s_%.1fB/rec", tc.name, float64(buf.Len())/float64(len(img.Records))), func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(img.Records)))
			for i := 0; i < b.N; i++ {
				src, err := open()
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for {
					batch, err := src.Next()
					if err == io.EOF {
						break
					}
					if err != nil {
						b.Fatal(err)
					}
					n += len(batch)
				}
				src.Close()
				if n != len(img.Records) {
					b.Fatalf("decoded %d", n)
				}
			}
		})
	}
}

// BenchmarkV2Encode measures the v2 writer over a million-record image at
// the default chunk size and at 4,096-record chunks, in records/s.
func BenchmarkV2Encode(b *testing.B) {
	img := mkImage(1 << 20)
	for _, tc := range []struct {
		name string
		opt  StreamOptions
	}{
		{"default", StreamOptions{}},
		{"chunk4096", StreamOptions{ChunkRecords: 4096}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := EncodeV2(io.Discard, img, tc.opt); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.N)*float64(len(img.Records))/b.Elapsed().Seconds(), "records/s")
		})
	}
}

// TestStreamDecodeBoundedMemory pins the streaming memory contract:
// draining a multi-million-record v2 stream must keep live heap growth
// bounded by the decode pool's ring of chunks, while materializing the same
// image holds the full record slice. Skipped in -short runs (it allocates a
// 2M-record trace).
func TestStreamDecodeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 2_000_000
	img := mkImage(n)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	recordBytes := uint64(n) * uint64(unsafe.Sizeof(Record{}))
	img = nil

	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}

	base := heap()
	const workers = 2
	src, err := OpenStreamConfig(bytes.NewReader(data), StreamConfig{DecodeWorkers: workers})
	if err != nil {
		t.Fatal(err)
	}
	var peak uint64
	count := 0
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		count += len(batch)
		if count%(1<<19) < DefaultChunkRecords {
			if h := heap(); h > peak {
				peak = h
			}
		}
	}
	src.Close()
	if count != n {
		t.Fatalf("streamed %d of %d records", count, n)
	}
	growth := peak - base
	t.Logf("streaming: peak live heap growth %d KiB over %d records (%d KiB materialized)",
		growth/1024, n, recordBytes/1024)
	// Each of the workers+2 slots holds a 1.5 MiB record buffer (64K
	// records at 24 B/record) and its compressed payload; allow as much
	// again for those payloads and the workers' inflate scratch, 12 MiB in
	// all — a quarter of the 48 MiB record slice.
	slotBytes := uint64(DefaultChunkRecords) * uint64(unsafe.Sizeof(Record{}))
	if bound := 2 * (workers + 2) * slotBytes; growth > bound {
		t.Fatalf("streaming held %d B live, more than %d B for %d ring slots", growth, bound, workers+2)
	}

	mid := heap()
	got, err := Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	matGrowth := heap() - mid
	if len(got.Records) != n {
		t.Fatal("materialized decode lost records")
	}
	if matGrowth < recordBytes/2 {
		t.Fatalf("materialized decode held only %d B — measurement broken?", matGrowth)
	}
	t.Logf("materialized: live heap growth %d KiB", matGrowth/1024)
	runtime.KeepAlive(got)
}

// TestStreamEncodeBoundedMemory pins the writer's memory contract: a
// default-chunk encode of a 2M-record stream, fed one record at a time,
// never holds more than the GOMAXPROCS+1 chunks of its ring, whatever the
// stream's length. Each chunk slot is bounded by a flate writer plus twice
// the chunk's raw payload for the payload buffer and twice again for the
// deflate output (append and bytes.Buffer growth at most double), and
// mkImage's records encode to at most 7 bytes each. Skipped in -short runs.
func TestStreamEncodeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const n = 1 << 21
	heap := func() uint64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	base := heap()
	fw, err := flate.NewWriter(io.Discard, flate.BestSpeed)
	if err != nil {
		t.Fatal(err)
	}
	flateBytes := heap() - base
	runtime.KeepAlive(fw)
	fw = nil

	base = heap()
	sw, err := NewStreamWriter(io.Discard, "stream", mkAreas(), StreamOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var peak, period uint64
	for i := 0; i < n; i++ {
		rec := mkRecord(i, period)
		period = rec.Period
		if err := sw.Write(rec); err != nil {
			t.Fatal(err)
		}
		if i%(1<<18) == 1<<18-1 {
			peak = max(peak, heap())
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	if sw.Count() != n {
		t.Fatalf("wrote %d of %d records", sw.Count(), n)
	}
	growth := peak - base
	slots := uint64(runtime.GOMAXPROCS(0) + 1)
	slotBytes := flateBytes + 4*7*DefaultChunkRecords
	t.Logf("encode: peak live heap growth %d KiB over %d records (%d slots of at most %d KiB)",
		growth/1024, n, slots, slotBytes/1024)
	if bound := slots * slotBytes; growth > bound {
		t.Fatalf("encoding held %d B live, more than %d B for %d ring slots", growth, bound, slots)
	}
	runtime.KeepAlive(sw)
}
