package trace

import (
	"bytes"
	"io"
)

// sequentialDecode is the reference decoder the v2 decode pool is tested
// against: one chunk at a time on the caller's goroutine, built from the
// pool's own frame, payload and footer primitives, and returning the
// records decoded before the stream ended plus the terminating error (nil
// for a clean end). Non-v2 input goes through OpenStream, whose v1 decoder
// has no concurrent counterpart.
func sequentialDecode(data []byte) ([]Record, error) {
	c := newCountingReader(bytes.NewReader(data))
	h, err := readStreamHeader(c)
	if err != nil {
		return nil, err
	}
	if h.version != formatVer2 {
		src, err := OpenStream(bytes.NewReader(data))
		if err != nil {
			return nil, err
		}
		defer src.Close()
		return drainAll(src)
	}
	var (
		out        []Record
		seen       []chunkIndexEntry
		disk       []byte
		dec        chunkDecoder
		lastPeriod uint64
		lastOffs   = make([]uint64, len(h.areas))
	)
	for {
		f, err := readChunkFrame(c)
		if err != nil {
			return out, err
		}
		if f.terminator {
			if err := checkStreamFooter(c, seen, len(out)); err != io.EOF {
				return out, err
			}
			return out, nil
		}
		if f.basePeriod < lastPeriod {
			return out, errBasePeriodBackwards(f, lastPeriod)
		}
		if disk, err = readDisk(c, f, disk); err != nil {
			return out, err
		}
		payload, err := dec.inflatePayload(f, disk)
		if err != nil {
			return out, err
		}
		clear(lastOffs)
		recs, last, err := decodeChunkPayload(payload, int(f.count), f.basePeriod, h.areas, lastOffs, nil, len(out), f.payloadStart)
		if err != nil {
			return out, err
		}
		out = append(out, recs...)
		lastPeriod = last
		seen = append(seen, chunkIndexEntry{records: f.count, diskBytes: f.diskLen})
	}
}
