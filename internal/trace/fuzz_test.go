package trace

import (
	"bytes"
	"encoding/binary"
	"flag"
	"fmt"
	"math/bits"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// fuzzSeeds returns representative inputs for the decoder fuzz targets:
// well-formed v1 and v2 images (raw and compressed chunks), their
// truncations, a few corrupted headers, multi-chunk images whose frames and
// footer scan cleanly but whose chunks do not decode, DEFLATE payloads
// corrupted behind intact frames (see deflateSeeds), a period that wraps
// backwards in each format (see wrapSeeds) and v1 records whose size and
// area overflow the record's fields (see v1OverwideSeeds).
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
	seeds = append(seeds, deflateSeeds()...)
	seeds = append(seeds, wrapSeeds()...)
	return append(seeds, v1OverwideSeeds()...)
}

// v1OverwideSeeds returns two one-record v1 images: one of size 2^32+8 and
// one referencing area 2^32 of 1. A decoder that narrows the varints to the
// record's field widths before checking them reads size 8 and area 0.
func v1OverwideSeeds() [][]byte {
	areas := []Area{{Name: "heap", Size: 1 << 20, Write: true}}
	var seeds [][]byte
	for _, f := range []struct{ size, area uint64 }{{1<<32 + 8, 0}, {8, 1 << 32}} {
		p, err := appendHeader(nil, formatVer, "wide", areas)
		if err != nil {
			panic(err)
		}
		p = append(p, 1, 1, 64, byte(Read)) // record count, period delta, offset, op
		p = binary.AppendUvarint(p, f.size)
		seeds = append(seeds, binary.AppendUvarint(p, f.area))
	}
	return seeds
}

// wrapSeeds returns a v1 and a v2 image of two records whose second period
// delta wraps around to below the first period. Each record is valid on its
// own; only the period order is broken.
func wrapSeeds() [][]byte {
	areas := []Area{{Name: "heap", Size: 1 << 20, Write: true}}
	v1, err := appendHeader(nil, formatVer, "wrap", areas)
	if err != nil {
		panic(err)
	}
	v2 := append([]byte(nil), v1...)
	v2[4] = byte(formatVer2) // the version's low byte
	deltas := []uint64{5, 1<<64 - 1}
	v1 = binary.AppendUvarint(v1, uint64(len(deltas)))
	var payload []byte
	for _, d := range deltas {
		v1 = binary.AppendUvarint(v1, d)
		v1 = append(v1, 64, 0, 8, 0) // offset, op, size, area
		payload = binary.AppendUvarint(payload, d)
		payload = append(payload, 0, 0, 8) // tag, offset delta, size
	}
	v2 = append(v2, byte(len(deltas)), codecRaw, 0) // count, codec, base period
	v2 = binary.AppendUvarint(v2, uint64(len(payload)))
	v2 = binary.AppendUvarint(v2, uint64(len(payload)))
	v2 = append(append(v2, payload...), 0)
	footer := []byte{1, byte(len(deltas)), byte(len(payload)), byte(len(deltas))}
	v2 = append(v2, footer...)
	v2 = binary.LittleEndian.AppendUint32(v2, uint32(len(footer)))
	return [][]byte{v1, binary.LittleEndian.AppendUint32(v2, footerMagic)}
}

// deflateSeeds returns four-chunk v2 images whose frames and footer scan
// cleanly but whose chunk 1 carries a corrupt DEFLATE payload: a flipped
// bit in its dynamic-table header, a match reaching before the start of the
// output, a declared raw length one byte short of what the payload
// inflates to, and the payload cut short inside its block.
func deflateSeeds() [][]byte {
	var buf bytes.Buffer
	if err := EncodeV2(&buf, mkImage(256), StreamOptions{ChunkRecords: 64}); err != nil {
		panic(err)
	}
	data := buf.Bytes()
	var payload []byte
	var rawLen uint64
	eachChunk(data, func(i int, f chunkFrame, disk []byte) {
		if i == 1 {
			payload, rawLen = disk, f.rawLen
		}
	})
	if payload[0]>>1&3 != 2 {
		panic("chunk 1 does not start with a dynamic-Huffman block")
	}
	// Bit 17 is the first code-length code length (for symbol 16).
	flipped := append([]byte(nil), payload...)
	flipped[2] ^= 1 << 1
	// One fixed-Huffman block: a length-3 match at distance 1 as the first
	// symbol, then end of block.
	var w lsbWriter
	w.bits(1, 1)         // BFINAL
	w.bits(1, 2)         // BTYPE 01: fixed Huffman
	w.code(0b0000001, 7) // length symbol 257: 3 bytes
	w.code(0, 5)         // distance symbol 0: distance 1
	w.code(0, 7)         // end of block
	return [][]byte{
		reframe(data, 1, flipped, rawLen),
		reframe(data, 1, w.flush(), 3),
		reframe(data, 1, payload, rawLen-1),
		reframe(data, 1, payload[:len(payload)/2], rawLen),
	}
}

// lsbWriter packs a DEFLATE bit stream: header fields least significant
// bit first, Huffman codes most significant bit first.
type lsbWriter struct {
	out  []byte
	acc  uint64
	nacc uint
}

func (w *lsbWriter) bits(v uint64, n uint) {
	w.acc |= v << w.nacc
	for w.nacc += n; w.nacc >= 8; w.nacc -= 8 {
		w.out = append(w.out, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *lsbWriter) code(c uint64, n uint) { w.bits(bits.Reverse64(c)>>(64-n), n) }

// flush returns the stream, its last byte padded with zero bits.
func (w *lsbWriter) flush() []byte {
	if w.nacc > 0 {
		return append(w.out, byte(w.acc))
	}
	return w.out
}

// eachChunk calls fn on every chunk of a well-formed v2 image, in order.
func eachChunk(data []byte, fn func(i int, f chunkFrame, disk []byte)) (headerLen int64) {
	c := newCountingReader(bytes.NewReader(data))
	if _, err := readStreamHeader(c); err != nil {
		panic(err)
	}
	headerLen = c.off
	for i := 0; ; i++ {
		f, err := readChunkFrame(c)
		if err != nil {
			panic(err)
		}
		if f.terminator {
			return headerLen
		}
		disk, err := readDisk(c, f, nil)
		if err != nil {
			panic(err)
		}
		fn(i, f, disk)
	}
}

// reframe re-encodes a well-formed v2 image with chunk k's payload
// replaced and its raw length redeclared. Its frame and footer entry are
// rewritten to match, so the image scans cleanly and only the payload
// itself can be wrong.
func reframe(data []byte, k int, payload []byte, rawLen uint64) []byte {
	var chunks []byte
	var index []chunkIndexEntry
	total := uint64(0)
	hdr := eachChunk(data, func(i int, f chunkFrame, disk []byte) {
		if i == k {
			disk, f.rawLen = payload, rawLen
		}
		chunks = binary.AppendUvarint(chunks, f.count)
		chunks = append(chunks, f.codec)
		chunks = binary.AppendUvarint(chunks, f.basePeriod)
		chunks = binary.AppendUvarint(chunks, f.rawLen)
		chunks = binary.AppendUvarint(chunks, uint64(len(disk)))
		chunks = append(chunks, disk...)
		index = append(index, chunkIndexEntry{records: f.count, diskBytes: uint64(len(disk))})
		total += f.count
	})
	out := append(append([]byte(nil), data[:hdr]...), chunks...)
	out = append(out, 0)
	footer := binary.AppendUvarint(nil, uint64(len(index)))
	for _, e := range index {
		footer = binary.AppendUvarint(footer, e.records)
		footer = binary.AppendUvarint(footer, e.diskBytes)
	}
	footer = binary.AppendUvarint(footer, total)
	out = append(out, footer...)
	out = binary.LittleEndian.AppendUint32(out, uint32(len(footer)))
	return binary.LittleEndian.AppendUint32(out, footerMagic)
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

// updateGolden rewrites testdata/decode_errors.golden instead of comparing.
var updateGolden = flag.Bool("update-golden", false, "rewrite testdata/decode_errors.golden instead of comparing")

// TestDecodeErrorsGolden freezes what every checked-in FuzzDecode and
// FuzzChunkIndex corpus entry decodes to: Decode's result, and the result
// of ScanChunkIndex followed by an OpenRange over the whole index — the
// exact error text, or the record count. Regenerate with
//
//	go test ./internal/trace -run TestDecodeErrorsGolden -update-golden
func TestDecodeErrorsGolden(t *testing.T) {
	var b strings.Builder
	for _, target := range []string{"FuzzDecode", "FuzzChunkIndex"} {
		dir := filepath.Join("testdata", "fuzz", target)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := readCorpusEntry(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(&b, "%s/%s\n", target, e.Name())
			img, err := Decode(bytes.NewReader(data))
			if err == nil {
				fmt.Fprintf(&b, "\tdecode: ok %d records\n", len(img.Records))
			} else {
				fmt.Fprintf(&b, "\tdecode: %v\n", err)
			}
			fmt.Fprintf(&b, "\trange: %s\n", rangeResult(data))
		}
	}
	path := filepath.Join("testdata", "decode_errors.golden")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (generate with -update-golden)", err)
	}
	if got := b.String(); got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s line %d:\n got  %s\n want %s", path, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, want %d", path, len(gl), len(wl))
	}
}

// rangeResult scans data's chunk index and drains one range over all of
// it, rendering the outcome as a golden line.
func rangeResult(data []byte) string {
	rd := bytes.NewReader(data)
	ix, err := ScanChunkIndex(rd)
	if err != nil {
		return "scan: " + err.Error()
	}
	src, err := ix.OpenRange(rd, 0, len(ix.Chunks))
	if err != nil {
		return "open: " + err.Error()
	}
	defer src.Close()
	recs, err := drainAll(src)
	if err != nil {
		return err.Error()
	}
	return fmt.Sprintf("ok %d records", len(recs))
}

// readCorpusEntry parses a one-value []byte fuzz corpus file.
func readCorpusEntry(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 2 || lines[0] != "go test fuzz v1" ||
		!strings.HasPrefix(lines[1], "[]byte(") || !strings.HasSuffix(lines[1], ")") {
		return nil, fmt.Errorf("%s: not a one-value []byte corpus entry", path)
	}
	s, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lines[1], "[]byte("), ")"))
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return []byte(s), nil
}
