package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"strings"
	"testing"

	"kindle/internal/core"
	"kindle/internal/machine"
	"kindle/internal/trace"
	"kindle/internal/workloads"
)

// decodedSummary is the summary kindle-trace printed before it streamed
// binary input: materialize the image with trace.Decode, then print.
func decodedSummary(data []byte) (string, error) {
	img, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		return "", err
	}
	var b strings.Builder
	r, w := img.Mix()
	fmt.Fprintf(&b, "benchmark: %s\n", img.Benchmark)
	fmt.Fprintf(&b, "records:   %d (%.1f%% read / %.1f%% write)\n", len(img.Records), r, w)
	fmt.Fprintf(&b, "footprint: %d KiB in %d areas\n", img.Footprint()/1024, len(img.Areas))
	for i, a := range img.Areas {
		kind := "DRAM"
		if a.NVM {
			kind = "NVM"
		}
		fmt.Fprintf(&b, "  area %2d: %-16s %8d KiB  %s\n", i, a.Name, a.Size/1024, kind)
	}
	return b.String(), nil
}

// wrapImage hand-encodes a two-record image whose second period delta
// wraps around to below the first period. Each record is valid on its own;
// only the period order is broken.
func wrapImage(version uint32) []byte {
	b := binary.LittleEndian.AppendUint32(nil, 0x4B545243) // "KTRC"
	b = binary.LittleEndian.AppendUint32(b, version)
	b = append(b, 4)
	b = append(b, "wrap"...)
	b = append(b, 1, 4)
	b = append(b, "heap"...)
	b = binary.AppendUvarint(b, 1<<20)
	b = append(b, 2) // writable DRAM
	deltas := []uint64{5, 1<<64 - 1}
	if version == 1 {
		b = binary.AppendUvarint(b, uint64(len(deltas)))
		for _, d := range deltas {
			b = binary.AppendUvarint(b, d)
			b = append(b, 64, 0, 8, 0) // offset, op, size, area
		}
		return b
	}
	var payload []byte
	for _, d := range deltas {
		payload = binary.AppendUvarint(payload, d)
		payload = append(payload, 0, 0, 8) // tag, offset delta, size
	}
	b = binary.AppendUvarint(b, uint64(len(deltas)))
	b = append(b, 0, 0) // raw codec, base period 0
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = binary.AppendUvarint(b, uint64(len(payload)))
	b = append(append(b, payload...), 0)
	footer := []byte{1, byte(len(deltas)), byte(len(payload)), byte(len(deltas))}
	b = append(b, footer...)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(footer)))
	return binary.LittleEndian.AppendUint32(b, 0x4B494458) // "KIDX"
}

// TestSummaryStreamsLikeDecode: the streamed summary of a binary image is
// byte-identical to the one printed from the decoded image, for v1 and v2
// images, and an image Decode rejects fails with Decode's error text.
func TestSummaryStreamsLikeDecode(t *testing.T) {
	cfg := workloads.SmallYCSB()
	cfg.Ops = 20_000
	img, err := workloads.YCSB(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var v1, v2, empty bytes.Buffer
	if err := trace.Encode(&v1, img); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeV2(&v2, img, trace.StreamOptions{ChunkRecords: 4096}); err != nil {
		t.Fatal(err)
	}
	if err := trace.EncodeV2(&empty, &trace.Image{Benchmark: "empty", Areas: img.Areas}, trace.StreamOptions{}); err != nil {
		t.Fatal(err)
	}
	flipped := append([]byte(nil), v2.Bytes()...)
	flipped[len(flipped)/2] ^= 0x40
	inputs := map[string][]byte{
		"v1":          v1.Bytes(),
		"v2":          v2.Bytes(),
		"v2 empty":    empty.Bytes(),
		"v1 cut":      v1.Bytes()[:v1.Len()/2],
		"v2 cut":      v2.Bytes()[:v2.Len()/2],
		"v2 flipped":  flipped,
		"v1 wrap":     wrapImage(1),
		"v2 wrap":     wrapImage(2),
		"not a trace": []byte("hello"),
	}
	for name, data := range inputs {
		want, wantErr := decodedSummary(data)
		var got bytes.Buffer
		err := summarize(&got, bytes.NewReader(data))
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, Decode's %v", name, err, wantErr)
		}
		if got.String() != want {
			t.Fatalf("%s: summary\n%s\nwant\n%s", name, got.String(), want)
		}
	}
	for _, name := range []string{"v1 wrap", "v2 wrap"} {
		if _, err := decodedSummary(inputs[name]); err == nil || !strings.Contains(err.Error(), "period goes backwards") {
			t.Fatalf("%s: Decode error %v, want a backwards period", name, err)
		}
	}
}

// TestDecodersRejectPeriodWrap: every streamed path refuses the wrap image
// that Decode refuses — OpenStream in both formats, OpenRange over the v2
// chunk index, and a sharded replay — instead of handing out a period that
// goes backwards.
func TestDecodersRejectPeriodWrap(t *testing.T) {
	const want = "period goes backwards"
	for _, version := range []uint32{1, 2} {
		src, err := trace.OpenStream(bytes.NewReader(wrapImage(version)))
		if err != nil {
			t.Fatal(err)
		}
		_, err = src.Next()
		src.Close()
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d OpenStream: error %v, want %q", version, err, want)
		}
	}
	data := wrapImage(2)
	ix, err := trace.ScanChunkIndex(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	src, err := ix.OpenRange(bytes.NewReader(data), 0, len(ix.Chunks))
	if err != nil {
		t.Fatal(err)
	}
	_, err = src.Next()
	src.Close()
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenRange: error %v, want %q", err, want)
	}
	cfg := machine.TestConfig()
	_, err = core.ReplaySharded(func() (io.ReadSeeker, error) { return bytes.NewReader(data), nil },
		core.ShardedOptions{Shards: 1, Config: &cfg})
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReplaySharded: error %v, want %q", err, want)
	}
}
