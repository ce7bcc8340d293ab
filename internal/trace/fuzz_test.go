package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// fuzzSeeds returns representative inputs for the decoder fuzz targets:
// well-formed v1 and v2 images (raw and compressed chunks), their
// truncations, a few corrupted headers, and multi-chunk images whose
// frames and footer scan cleanly but whose chunks do not decode.
// The same set is checked in under testdata/fuzz/FuzzDecode and
// testdata/fuzz/FuzzChunkIndex so CI's fuzz smoke starts from real
// coverage.
func fuzzSeeds() [][]byte {
	img := sample()
	var v1 bytes.Buffer
	if err := Encode(&v1, img); err != nil {
		panic(err)
	}
	var v2 bytes.Buffer
	if err := EncodeV2(&v2, img, StreamOptions{}); err != nil {
		panic(err)
	}
	var v2raw bytes.Buffer
	if err := EncodeV2(&v2raw, img, StreamOptions{NoCompress: true, ChunkRecords: 2}); err != nil {
		panic(err)
	}
	badMagic := append([]byte(nil), v1.Bytes()...)
	badMagic[0] ^= 0xFF
	badVer := append([]byte(nil), v2.Bytes()...)
	badVer[4] = 99
	// The last record's size is v2raw's last payload byte, followed by the
	// terminator, a 6-byte footer and the 8-byte footer trailer.
	zeroSize := append([]byte(nil), v2raw.Bytes()...)
	zeroSize[len(zeroSize)-16] = 0
	// Chunk 1's base period (after its count and codec bytes) set below
	// chunk 0's last period, on top of the zeroed size and again with the
	// payload torn: the base-period error must win over both.
	ix, err := ScanChunkIndex(bytes.NewReader(v2raw.Bytes()))
	if err != nil {
		panic(err)
	}
	backZeroSize := append([]byte(nil), zeroSize...)
	backZeroSize[ix.Chunks[1].Offset+2] = 1
	backTorn := backZeroSize[:len(backZeroSize)-17]
	seeds := [][]byte{
		v1.Bytes(),
		v2.Bytes(),
		v2raw.Bytes(),
		v1.Bytes()[:v1.Len()/2],
		v2.Bytes()[:v2.Len()/2],
		v2.Bytes()[:v2.Len()-5],
		badMagic,
		badVer,
		{},
		{0x43, 0x52, 0x54, 0x4B}, // magic only
		zeroSize,
		backZeroSize,
		backTorn,
	}
	return seeds
}

// FuzzDecode throws arbitrary bytes at the binary decoders (v1 and v2 take
// the same entry point; the version byte routes). The decode pool at one
// worker through a non-seekable reader (no footer preread, Total unknown)
// and at four workers through a seekable one must both match the
// sequential reference — the same records before the stream ends and the
// same error text — and Decode, which validates what it materializes, must
// succeed exactly when the reference does.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ref, refErr := sequentialDecode(data)
		recs, err := openDrain(nonSeeker{bytes.NewReader(data)}, 1)
		sameDecode(t, "workers 1", recs, err, ref, refErr)
		recs, err = openDrain(bytes.NewReader(data), 4)
		sameDecode(t, "workers 4", recs, err, ref, refErr)
		if _, err := Decode(bytes.NewReader(data)); (err == nil) != (refErr == nil) {
			t.Fatalf("Decode err %v, reference err %v", err, refErr)
		}
	})
}

// FuzzChunkIndex checks the sharded-replay entry points: whatever
// ScanChunkIndex accepts, OpenRange over any single chunk must fail with an
// error rather than panic, and OpenRange over the whole index must decode
// exactly what a whole-stream decode does — the same records, or the same
// error.
func FuzzChunkIndex(f *testing.F) {
	for _, s := range fuzzSeeds() {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rd := bytes.NewReader(data)
		ix, err := ScanChunkIndex(rd)
		if err != nil {
			return
		}
		for i := range ix.Chunks {
			src, err := ix.OpenRange(rd, i, i+1)
			if err != nil {
				t.Fatalf("OpenRange(%d, %d): %v", i, i+1, err)
			}
			drainAll(src)
			src.Close()
		}
		src, err := ix.OpenRange(rd, 0, len(ix.Chunks))
		if err != nil {
			t.Fatalf("OpenRange over all %d chunks: %v", len(ix.Chunks), err)
		}
		got, err := drainAll(src)
		src.Close()
		want, wantErr := openDrain(bytes.NewReader(data), 1)
		sameDecode(t, fmt.Sprintf("range [0, %d)", len(ix.Chunks)), got, err, want, wantErr)
	})
}
