package trace

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestScanChunkIndex(t *testing.T) {
	img := mkImage(1000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	ix, err := ScanChunkIndex(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if ix.Benchmark != img.Benchmark {
		t.Fatalf("benchmark %q", ix.Benchmark)
	}
	if len(ix.Areas) != len(img.Areas) {
		t.Fatalf("%d areas", len(ix.Areas))
	}
	wantChunks := (1000 + 63) / 64
	if len(ix.Chunks) != wantChunks {
		t.Fatalf("%d chunks, want %d", len(ix.Chunks), wantChunks)
	}
	if ix.Total != 1000 {
		t.Fatalf("Total = %d", ix.Total)
	}
	if ix.RangeTotal(0, len(ix.Chunks)) != 1000 {
		t.Fatalf("RangeTotal(full) = %d", ix.RangeTotal(0, len(ix.Chunks)))
	}
	// Chunk base periods must be the period preceding each chunk's first
	// record, i.e. the last period of the previous chunk.
	if ix.Chunks[0].BasePeriod != 0 {
		t.Fatalf("chunk 0 base period %d", ix.Chunks[0].BasePeriod)
	}
	for i := 1; i < len(ix.Chunks); i++ {
		want := img.Records[i*64-1].Period
		if ix.Chunks[i].BasePeriod != want {
			t.Fatalf("chunk %d base period %d, want %d", i, ix.Chunks[i].BasePeriod, want)
		}
	}
}

func TestScanChunkIndexRejectsV1(t *testing.T) {
	img := mkImage(10)
	var buf bytes.Buffer
	if err := Encode(&buf, img); err != nil {
		t.Fatal(err)
	}
	if _, err := ScanChunkIndex(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("v1 scan error = %v, want ErrCorrupt", err)
	}
}

func TestScanChunkIndexRejectsTruncation(t *testing.T) {
	img := mkImage(500)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := ScanChunkIndex(bytes.NewReader(data[:len(data)-9])); err == nil {
		t.Fatal("truncated scan succeeded")
	}
}

func TestOpenRange(t *testing.T) {
	img := mkImage(1000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	ix, err := ScanChunkIndex(rd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{0, len(ix.Chunks)}, {0, 1}, {3, 7}, {len(ix.Chunks) - 1, len(ix.Chunks)}, {5, 5}} {
		lo, hi := tc[0], tc[1]
		src, err := ix.OpenRange(rd, lo, hi)
		if err != nil {
			t.Fatalf("OpenRange(%d, %d): %v", lo, hi, err)
		}
		got, err := drainAll(src)
		src.Close()
		if err != nil {
			t.Fatalf("range [%d, %d): %v", lo, hi, err)
		}
		want := img.Records[min(lo*64, 1000):min(hi*64, 1000)]
		if len(got) != len(want) {
			t.Fatalf("range [%d, %d): %d records, want %d", lo, hi, len(got), len(want))
		}
		if src.Total() != len(want) {
			t.Fatalf("range [%d, %d): Total %d, want %d", lo, hi, src.Total(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("range [%d, %d): record %d = %+v, want %+v", lo, hi, i, got[i], want[i])
			}
		}
	}
}

func TestOpenRangeRejectsBadRange(t *testing.T) {
	img := mkImage(100)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	rd := bytes.NewReader(buf.Bytes())
	ix, err := ScanChunkIndex(rd)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range [][2]int{{-1, 1}, {0, len(ix.Chunks) + 1}, {2, 1}} {
		if _, err := ix.OpenRange(rd, tc[0], tc[1]); err == nil {
			t.Fatalf("OpenRange(%d, %d) succeeded", tc[0], tc[1])
		}
	}
}

// TestOpenRangeCloseRecycles: Close hands a range's decode state to the
// next range opened. A second Close is a no-op, and Next on the closed
// source reports io.EOF without disturbing the range now using the state.
func TestOpenRangeCloseRecycles(t *testing.T) {
	img := mkImage(1000)
	var buf bytes.Buffer
	if err := EncodeV2(&buf, img, StreamOptions{ChunkRecords: 64}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	ix, err := ScanChunkIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	first, err := ix.OpenRange(bytes.NewReader(data), 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := first.Next(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := first.Close(); err != nil {
			t.Fatalf("Close %d: %v", i+1, err)
		}
	}
	second, err := ix.OpenRange(bytes.NewReader(data), 2, 6)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	var got []Record
	for {
		if _, err := first.Next(); err != io.EOF {
			t.Fatalf("Next after Close: %v, want io.EOF", err)
		}
		batch, err := second.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, batch...)
	}
	sameRecords(t, got, img.Records[2*64:6*64])
}
