package trace

import (
	"bytes"
	"compress/flate"
	"errors"
	"io"
	"math/rand"
	"testing"
)

// refInflate is the compress/flate inflate that chunkDecoder.inflatePayload
// ran before the package had its own decoder: read rawLen bytes, then ask
// for one more. It is the oracle FuzzInflate holds inflater to.
func refInflate(disk []byte, rawLen int) ([]byte, error) {
	raw := make([]byte, rawLen)
	r := flate.NewReader(bytes.NewReader(disk))
	if _, err := io.ReadFull(r, raw); err != nil {
		return nil, err
	}
	var overrun [1]byte
	if n, _ := r.Read(overrun[:]); n != 0 {
		return nil, errInflateOverrun
	}
	return raw, nil
}

// inflateClass names what an inflate result means to a chunk decode.
func inflateClass(err error) string {
	switch {
	case err == nil:
		return "ok"
	case errors.Is(err, errInflateOverrun):
		return "overrun"
	default:
		return "inflate error"
	}
}

// deflateWith compresses raw at a compress/flate level, calling Flush after
// every flushEvery bytes (0: never) to end a block there.
func deflateWith(raw []byte, level, flushEvery int) []byte {
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		panic(err)
	}
	for len(raw) > 0 {
		n := len(raw)
		if flushEvery > 0 {
			n = min(n, flushEvery)
		}
		if _, err := w.Write(raw[:n]); err != nil {
			panic(err)
		}
		if flushEvery > 0 {
			if err := w.Flush(); err != nil {
				panic(err)
			}
		}
		raw = raw[n:]
	}
	if err := w.Close(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// skewedBytes returns n bytes whose values follow a geometric
// distribution: byte k has probability about 2^-(k+1), so a Huffman code
// for them runs to the 15-bit limit.
func skewedBytes(n int, seed int64) []byte {
	rng := rand.New(rand.NewSource(seed))
	out := make([]byte, n)
	for i := range out {
		k := 0
		for k < 40 && rng.Intn(2) == 0 {
			k++
		}
		out[i] = byte(k*7 + rng.Intn(3))
	}
	return out
}

type inflateSeed struct {
	disk   []byte
	rawLen uint32
}

// inflateSeeds returns FuzzInflate's seeds, built from the raw payloads of
// real 512-record chunks (small, so the fuzzer's mutations stay cheap):
//   - BestSpeed dynamic blocks;
//   - literal-only blocks (flate.HuffmanOnly, with a one-code distance tree);
//   - stored blocks (flate.NoCompression), also declared one byte short;
//   - a fixed-Huffman block (the default level on a short input);
//   - several blocks per stream, ended by Flush;
//   - literal codes past the 10-bit first-level table (a geometric byte mix);
//   - a run of one byte (a one-code distance tree again), also declared one
//     byte short, which overruns inside a match;
//   - a block after the final one;
//   - a short stream cut at every byte, declared one byte short, with
//     garbage after its final block, declared one byte long and declared
//     empty.
func inflateSeeds() []inflateSeed {
	var img bytes.Buffer
	if err := EncodeV2(&img, mkImage(3*512), StreamOptions{ChunkRecords: 512, NoCompress: true}); err != nil {
		panic(err)
	}
	var raws [][]byte
	eachChunk(img.Bytes(), func(_ int, _ chunkFrame, disk []byte) { raws = append(raws, disk) })
	var seeds []inflateSeed
	add := func(raw, disk []byte) { seeds = append(seeds, inflateSeed{disk, uint32(len(raw))}) }
	for _, raw := range raws {
		add(raw, deflateWith(raw, flate.BestSpeed, 0))
	}
	add(raws[0], deflateWith(raws[0], flate.HuffmanOnly, 0))
	stored := deflateWith(raws[0], flate.NoCompression, 1000)
	add(raws[0], stored)
	seeds = append(seeds, inflateSeed{stored, uint32(len(raws[0]) - 1)}) // overrun inside a stored block
	add(raws[1][:40], deflateWith(raws[1][:40], flate.DefaultCompression, 0))
	add(raws[1], deflateWith(raws[1], flate.BestSpeed, 1000))
	skewed := skewedBytes(4000, 1)
	add(skewed, deflateWith(skewed, flate.BestSpeed, 0))
	add(skewed, deflateWith(skewed, flate.HuffmanOnly, 0))
	run := bytes.Repeat([]byte{7}, 1000)
	runDisk := deflateWith(run, flate.BestSpeed, 0)
	add(run, runDisk)
	seeds = append(seeds, inflateSeed{runDisk, uint32(len(run) - 1)}) // overrun inside a match
	// A final block holding "a", then bits that would decode as a second
	// block holding "b": compress/flate stops at the final block.
	var w lsbWriter
	for _, lit := range []uint64{'a', 'b'} {
		w.bits(1, 1)        // BFINAL
		w.bits(1, 2)        // fixed Huffman
		w.code(0x30+lit, 8) // literals 0-143 have 8-bit codes from 0x30
		w.code(0, 7)        // end of block
	}
	seeds = append(seeds, inflateSeed{w.flush(), 1})

	short := raws[2][:300]
	disk := deflateWith(short, flate.BestSpeed, 0)
	for i := 0; i < len(disk); i++ {
		seeds = append(seeds, inflateSeed{disk[:i], uint32(len(short))})
	}
	seeds = append(seeds,
		inflateSeed{disk, uint32(len(short) - 1)},
		inflateSeed{append(append([]byte(nil), disk...), 0xFF, 0x13, 0x00), uint32(len(short))},
		inflateSeed{disk, uint32(len(short) + 1)},
		inflateSeed{disk, 0},
	)
	return seeds
}

// FuzzInflate holds inflater to compress/flate: for any disk bytes and a
// declared raw length up to 64 KiB, both must agree on whether the stream
// fills exactly that length, inflates past it or fails, and on a fill, on
// every byte. The inflater decodes each input twice, so the second pass
// runs on tables the first one built.
func FuzzInflate(f *testing.F) {
	for _, s := range inflateSeeds() {
		f.Add(s.disk, s.rawLen)
	}
	f.Fuzz(func(t *testing.T, disk []byte, rawLen uint32) {
		n := int(rawLen % (64<<10 + 1))
		want, wantErr := refInflate(disk, n)
		var d inflater
		for pass := 0; pass < 2; pass++ {
			out := make([]byte, n)
			err := d.inflate(out, disk)
			if got, ref := inflateClass(err), inflateClass(wantErr); got != ref {
				t.Fatalf("pass %d, raw length %d: %s (%v), compress/flate %s (%v)", pass, n, got, err, ref, wantErr)
			}
			if err == nil && !bytes.Equal(out, want) {
				t.Fatalf("pass %d, raw length %d: inflated bytes differ from compress/flate's", pass, n)
			}
		}
	})
}

// TestInflateSeedsCover checks that FuzzInflate's seeds reach what they
// are meant to: a fixed-Huffman block, literal codes longer than the
// first-level table, and a one-code distance tree.
func TestInflateSeedsCover(t *testing.T) {
	var fixed, long, oneDist bool
	for _, s := range inflateSeeds() {
		var d inflater
		if err := d.inflate(make([]byte, s.rawLen), s.disk); err != nil {
			continue
		}
		fixed = fixed || s.disk[0]>>1&3 == 1
		long = long || d.lit.subBits > 0
		oneDist = oneDist || d.dist.t[0]&entLenMask == 1 && d.dist.t[1]&entLenMask == 0
	}
	if !fixed || !long || !oneDist {
		t.Fatalf("seeds reach a fixed block %v, long codes %v, a one-code distance tree %v; want all", fixed, long, oneDist)
	}
}
