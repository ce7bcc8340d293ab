package trace

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"testing"
)

// mkRandImage builds a random valid image: 1-4 areas of random sizes,
// monotonic periods with plateaus and jumps, random in-bounds accesses.
func mkRandImage(rng *rand.Rand, n int) *Image {
	img := &Image{Benchmark: "pipe"}
	nAreas := rng.Intn(4) + 1
	for a := 0; a < nAreas; a++ {
		img.Areas = append(img.Areas, Area{
			Name:  fmt.Sprintf("area%d", a),
			Size:  uint64(rng.Intn(1<<20) + 4096),
			NVM:   rng.Intn(2) == 0,
			Write: true,
		})
	}
	var period uint64
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0: // plateau
		case 1:
			period += uint64(rng.Intn(3))
		default:
			period += uint64(rng.Intn(1000))
		}
		area := rng.Intn(nAreas)
		size := uint32(1 << rng.Intn(7))
		off := uint64(rng.Int63n(int64(img.Areas[area].Size - uint64(size))))
		img.Records = append(img.Records, Record{
			Period: period,
			Offset: off,
			Op:     Op(rng.Intn(2)),
			Size:   size,
			Area:   uint32(area),
		})
	}
	return img
}

// drainAll pulls every batch out of a source, copying records (batches are
// only valid until the next Next call), and returns the prefix decoded
// before the stream ended plus the terminating error (nil for clean EOF).
func drainAll(src RecordSource) ([]Record, error) {
	var out []Record
	for {
		batch, err := src.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return out, err
		}
		out = append(out, batch...)
	}
}

// openDrain opens r with the given worker count, drains it, and closes the
// source. Open-time errors come back as the error with nil records.
func openDrain(r io.Reader, workers int) ([]Record, error) {
	src, err := OpenStreamConfig(r, StreamConfig{DecodeWorkers: workers})
	if err != nil {
		return nil, err
	}
	defer src.Close()
	return drainAll(src)
}

// sameDecode fails unless a decode matches the reference decode: the same
// records before the stream ended and the same terminating error text.
func sameDecode(t *testing.T, what string, got []Record, gotErr error, want []Record, wantErr error) {
	t.Helper()
	if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
		t.Fatalf("%s: err %v, reference err %v", what, gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: decoded %d records, reference %d (err %v)", what, len(got), len(want), wantErr)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: record %d = %+v, reference %+v", what, i, got[i], want[i])
		}
	}
}

// TestPipelinedDecodeMatchesSerial is the property test for the decode
// pool: over random images, chunk sizes and codecs, every worker count must
// yield the byte-identical record sequence of the sequential reference.
func TestPipelinedDecodeMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		img := mkRandImage(rng, rng.Intn(3000)+1)
		opt := StreamOptions{
			ChunkRecords: rng.Intn(256) + 1,
			NoCompress:   rng.Intn(2) == 0,
		}
		var buf bytes.Buffer
		if err := EncodeV2(&buf, img, opt); err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		ref, err := sequentialDecode(buf.Bytes())
		if err != nil {
			t.Fatalf("trial %d: reference decode: %v", trial, err)
		}
		sameRecords(t, ref, img.Records)
		for _, workers := range []int{1, 2, 3, 8} {
			piped, err := openDrain(bytes.NewReader(buf.Bytes()), workers)
			sameDecode(t, fmt.Sprintf("trial %d workers %d", trial, workers), piped, err, ref, nil)
		}
	}
}

// TestPipelinedDecodeErrorParity pins error-propagation order: over random
// truncations and byte flips of a valid stream, the decode pool must
// deliver the same decoded prefix and the same terminating error (by
// message) as the sequential reference — corruption in chunk k never
// surfaces before chunks 0..k-1 are emitted.
func TestPipelinedDecodeErrorParity(t *testing.T) {
	img := mkImage(3000)
	for _, opt := range []StreamOptions{
		{ChunkRecords: 64},
		{ChunkRecords: 64, NoCompress: true},
	} {
		var buf bytes.Buffer
		if err := EncodeV2(&buf, img, opt); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		rng := rand.New(rand.NewSource(int64(len(clean))))
		for trial := 0; trial < 120; trial++ {
			data := append([]byte(nil), clean...)
			if trial%2 == 0 {
				data = data[:rng.Intn(len(data))] // torn stream
			} else {
				pos := rng.Intn(len(data))
				data[pos] ^= byte(1 << rng.Intn(8)) // flipped bit
			}
			ref, refErr := sequentialDecode(data)
			for _, workers := range []int{1, 4} {
				piped, err := openDrain(bytes.NewReader(data), workers)
				sameDecode(t, fmt.Sprintf("trial %d workers %d", trial, workers), piped, err, ref, refErr)
			}
		}
	}
}

// TestPipelinedDecodeStats checks every v2 stream, one worker included,
// reports its pool shape and progress through DecodeStatsSource.
func TestPipelinedDecodeStats(t *testing.T) {
	img := mkImage(2000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 100}); err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 3} {
		src, err := OpenStreamConfig(bytes.NewReader(buf.Bytes()), StreamConfig{DecodeWorkers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ds, ok := src.(DecodeStatsSource)
		if !ok {
			t.Fatalf("workers %d: v2 source does not implement DecodeStatsSource", workers)
		}
		if _, err := drainAll(src); err != nil {
			t.Fatal(err)
		}
		src.Close()
		st := ds.DecodeStats()
		if st.Workers != workers {
			t.Fatalf("Workers = %d, want %d", st.Workers, workers)
		}
		if st.Chunks != 20 {
			t.Fatalf("workers %d: Chunks = %d, want 20", workers, st.Chunks)
		}
	}
}

// TestPipelinedCloseMidStream checks Close unwinds the pipeline cleanly
// with chunks still in flight (no goroutine leak panics under -race, no
// hang), and that the closed source reports io.EOF.
func TestPipelinedCloseMidStream(t *testing.T) {
	img := mkImage(5000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 16}); err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		src, err := OpenStreamConfig(bytes.NewReader(buf.Bytes()), StreamConfig{DecodeWorkers: 4})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < trial; i++ {
			if _, err := src.Next(); err != nil {
				t.Fatalf("trial %d: Next %d: %v", trial, i, err)
			}
		}
		if err := src.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := src.Next(); err != io.EOF {
			t.Fatalf("trial %d: Next after Close = %v, want io.EOF", trial, err)
		}
	}
}
