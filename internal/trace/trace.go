// Package trace defines Kindle's memory-trace format. The preparation
// component records every memory access of an instrumented application as a
// (period, offset, operation, size, area) tuple — exactly the tuple the
// paper's image generator emits — and packs traces plus the captured
// virtual-memory layout into a disk image the simulation side replays.
package trace

import (
	"encoding/binary"
	"fmt"
	"io"
)

// Op is the memory operation type.
type Op uint8

// Operations.
const (
	Read Op = iota
	Write
)

func (o Op) String() string {
	if o == Write {
		return "W"
	}
	return "R"
}

// Record is one traced memory access:
//
//	Period — logical time of the access (instruction count at capture)
//	Offset — byte offset of the access within its memory area
//	Op     — read or write
//	Size   — access size in bytes
//	Area   — index into the image's area table (which heap/stack area)
type Record struct {
	Period uint64
	Offset uint64
	Op     Op
	Size   uint32
	Area   uint32
}

// Area describes one memory region of the traced application, as captured
// from the /proc/pid/maps-style layout (stack areas come from the SniP
// stand-in for multi-threaded programs).
type Area struct {
	Name  string // e.g. "heap0", "stack.tid3"
	Size  uint64 // bytes, page aligned
	NVM   bool   // replayed with MAP_NVM
	Write bool   // mapped writable
}

// Image is the disk image consumed by the simulation component: the area
// table plus the access stream.
type Image struct {
	Benchmark string
	Areas     []Area
	Records   []Record

	// validated memoizes a successful Validate of the current Records
	// slice (identified by backing pointer and length), so repeated
	// launches of the same write-once image skip the full record scan.
	// Replacing or appending to Records invalidates the memo; editing a
	// record in place does not, so treat a validated image as immutable.
	validated struct {
		first *Record
		n     int
	}
}

// Validate checks internal consistency.
func (img *Image) Validate() error {
	if err := ValidateHeader(img.Benchmark, img.Areas); err != nil {
		return err
	}
	if len(img.Records) > 0 && img.validated.first == &img.Records[0] && img.validated.n == len(img.Records) {
		return nil
	}
	// The record loop runs once per image over the whole trace, so the
	// happy path is a handful of branches inline; only a failing record
	// drops to validateRecord for the precise error text.
	areas := img.Areas
	var lastPeriod uint64
	for i := range img.Records {
		r := &img.Records[i]
		end := r.Offset + uint64(r.Size)
		if int(r.Area) >= len(areas) || r.Size == 0 || r.Period < lastPeriod || r.Op > Write ||
			end > areas[r.Area].Size || end < r.Offset {
			return validateRecord(*r, areas, lastPeriod, i)
		}
		lastPeriod = r.Period
	}
	if len(img.Records) > 0 {
		img.validated.first = &img.Records[0]
		img.validated.n = len(img.Records)
	}
	return nil
}

// Mix reports the read/write percentages of the trace (Table II columns).
func (img *Image) Mix() (readPct, writePct float64) {
	if len(img.Records) == 0 {
		return 0, 0
	}
	var w int
	for _, r := range img.Records {
		if r.Op == Write {
			w++
		}
	}
	writePct = 100 * float64(w) / float64(len(img.Records))
	return 100 - writePct, writePct
}

// Footprint returns the total bytes across all areas.
func (img *Image) Footprint() uint64 {
	var n uint64
	for _, a := range img.Areas {
		n += a.Size
	}
	return n
}

const (
	formatMagic  = uint32(0x4B545243) // "KTRC"
	formatVer    = uint32(1)
	maxNameBytes = 255
)

// appendHeader appends the header both binary formats share: magic,
// version, benchmark name and area table. Names are length-prefixed by
// one byte, so a longer one is an error.
func appendHeader(p []byte, version uint32, benchmark string, areas []Area) ([]byte, error) {
	p = binary.LittleEndian.AppendUint32(p, formatMagic)
	p = binary.LittleEndian.AppendUint32(p, version)
	appendName := func(s string) error {
		if len(s) > maxNameBytes {
			return fmt.Errorf("trace: name %q too long", s)
		}
		p = append(append(p, byte(len(s))), s...)
		return nil
	}
	if err := appendName(benchmark); err != nil {
		return nil, err
	}
	p = binary.AppendUvarint(p, uint64(len(areas)))
	for _, a := range areas {
		if err := appendName(a.Name); err != nil {
			return nil, err
		}
		p = binary.AppendUvarint(p, a.Size)
		var flags byte
		if a.NVM {
			flags |= 1
		}
		if a.Write {
			flags |= 2
		}
		p = append(p, flags)
	}
	return p, nil
}

// Encode writes the image in the version 1 binary format: the header, then
// one flat record stream. Kindle's tools write version 2 (EncodeV2); Encode
// serves the image-sizes comparison and tests that need a v1 input.
func Encode(w io.Writer, img *Image) error {
	if err := img.Validate(); err != nil {
		return err
	}
	p, err := appendHeader(nil, formatVer, img.Benchmark, img.Areas)
	if err != nil {
		return err
	}
	p = binary.AppendUvarint(p, uint64(len(img.Records)))
	// Records are delta-encoded on Period (Validate guarantees it is
	// monotone non-decreasing) and raw-varint elsewhere; the encoded bytes
	// go to w in blocks of about 64 KiB.
	var lastPeriod uint64
	for _, r := range img.Records {
		p = binary.AppendUvarint(p, r.Period-lastPeriod)
		lastPeriod = r.Period
		p = binary.AppendUvarint(p, r.Offset)
		p = append(p, byte(r.Op))
		p = binary.AppendUvarint(p, uint64(r.Size))
		p = binary.AppendUvarint(p, uint64(r.Area))
		if len(p) >= 1<<16 {
			if _, err := w.Write(p); err != nil {
				return err
			}
			p = p[:0]
		}
	}
	_, err = w.Write(p)
	return err
}

// Decode materializes an image from either binary format — version 1
// (written by Encode) or version 2 (written by EncodeV2/StreamWriter) —
// sniffing the version from the header. Truncated or corrupt input yields
// a descriptive error naming the file offset and what was expected there,
// never a partially zero image. For bounded-memory replay of large images
// use OpenStream instead.
func Decode(r io.Reader) (*Image, error) {
	src, err := OpenStream(r)
	if err != nil {
		return nil, err
	}
	defer src.Close()
	img := &Image{Benchmark: src.Benchmark(), Areas: src.Areas()}
	// Preallocate from the header's count, capped so a corrupt count
	// cannot balloon the allocation before the decode loop fails.
	if t := src.Total(); t > 0 {
		img.Records = make([]Record, 0, min(t, 1<<21))
	}
	for {
		batch, err := src.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		img.Records = append(img.Records, batch...)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}
