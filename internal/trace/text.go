package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Text format: a human-readable/ChampSim-interop rendering of a Kindle
// image. Unlike the binary disk-image format it can be produced by
// external tracers (or hand-written for debugging) and diffed in review.
//
// Layout:
//
//	# comment lines anywhere
//	benchmark <name>
//	area <name> <size> <nvm:0|1> <write:0|1>
//	...
//	<period> <area-index> <offset> <R|W> <size>
//	...
//
// Fields are space-separated; records follow all headers.

// EncodeText writes img in the text format.
func EncodeText(w io.Writer, img *Image) error {
	if err := img.Validate(); err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# kindle trace v%d\n", formatVer)
	fmt.Fprintf(bw, "benchmark %s\n", img.Benchmark)
	for _, a := range img.Areas {
		fmt.Fprintf(bw, "area %s %d %d %d\n", a.Name, a.Size, b2i(a.NVM), b2i(a.Write))
	}
	for _, r := range img.Records {
		fmt.Fprintf(bw, "%d %d %d %s %d\n", r.Period, r.Area, r.Offset, r.Op, r.Size)
	}
	return bw.Flush()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// DecodeText parses the text format.
func DecodeText(r io.Reader) (*Image, error) {
	img := &Image{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "benchmark":
			if len(fields) != 2 {
				return nil, fmt.Errorf("trace: line %d: benchmark wants one name", lineNo)
			}
			img.Benchmark = fields[1]
		case "area":
			if len(fields) != 5 {
				return nil, fmt.Errorf("trace: line %d: area wants 4 fields", lineNo)
			}
			size, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
			}
			img.Areas = append(img.Areas, Area{
				Name:  fields[1],
				Size:  size,
				NVM:   fields[3] == "1",
				Write: fields[4] == "1",
			})
		default:
			if len(fields) != 5 {
				return nil, fmt.Errorf("trace: line %d: record wants 5 fields", lineNo)
			}
			period, err := strconv.ParseUint(fields[0], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: period: %w", lineNo, err)
			}
			area, err := strconv.ParseUint(fields[1], 10, 16)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: area: %w", lineNo, err)
			}
			offset, err := strconv.ParseUint(fields[2], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: offset: %w", lineNo, err)
			}
			var op Op
			switch fields[3] {
			case "R":
				op = Read
			case "W":
				op = Write
			default:
				return nil, fmt.Errorf("trace: line %d: op %q", lineNo, fields[3])
			}
			size, err := strconv.ParseUint(fields[4], 10, 32)
			if err != nil {
				return nil, fmt.Errorf("trace: line %d: size: %w", lineNo, err)
			}
			img.Records = append(img.Records, Record{
				Period: period,
				Area:   uint16(area),
				Offset: offset,
				Op:     op,
				Size:   uint32(size),
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if err := img.Validate(); err != nil {
		return nil, err
	}
	return img, nil
}
