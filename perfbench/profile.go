package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the packages CPU time is charged to, named after the repo's
// internal packages, plus gc for samples with no kindle frame at all
// (garbage collection, scheduler, idle runtime work).
var layers = []string{"trace", "core", "cpu", "tlb", "pt", "cache", "mem", "gemos", "persist", "machine", "sim", "gc"}

const kindlePrefix = "kindle/internal/"

// profSample is one CPU-profile sample: its stack, innermost frame first,
// and the CPU time it stands for.
type profSample struct {
	stack []string
	ns    int64
}

// layerOf maps a function name to its layer, or "" when the function is not
// in a layer package (runtime, stdlib, the benchmark itself, or a kindle
// package outside the layer list such as obs).
func layerOf(fn string) string {
	rest, ok := strings.CutPrefix(fn, kindlePrefix)
	if !ok {
		return ""
	}
	pkg := rest
	if i := strings.IndexAny(rest, "./"); i >= 0 {
		pkg = rest[:i]
	}
	for _, l := range layers[:len(layers)-1] {
		if l == pkg {
			return pkg
		}
	}
	return ""
}

// attribute charges each sample to the innermost layer frame on its stack:
// runtime and stdlib frames (flate, map operations, memmove) fall to their
// nearest kindle caller, and samples with no layer frame go to gc. It
// returns CPU nanoseconds per layer.
func attribute(samples []profSample) map[string]int64 {
	out := make(map[string]int64, len(layers))
	for _, s := range samples {
		layer := "gc"
		for _, fn := range s.stack {
			if l := layerOf(fn); l != "" {
				layer = l
				break
			}
		}
		out[layer] += s.ns
	}
	return out
}

// parseProfile decodes a gzipped pprof CPU profile, as runtime/pprof writes
// it, into samples. Only the fields attribution needs are read: sample
// types, samples, locations, functions and the string table.
func parseProfile(gz []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		strs        []string
		sampleTypes []uint64 // string index of each value's type
		samples     []rawSample
		locFuncs    = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames   = map[uint64]uint64{}   // function id → string index
	)
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num int, v uint64, _ []byte) error {
				if num == 1 {
					sampleTypes = append(sampleTypes, v)
				}
				return nil
			})
		case 2: // sample
			var s rawSample
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					return eachVarint(v, b, func(x uint64) { s.locs = append(s.locs, x) })
				case 2:
					return eachVarint(v, b, func(x uint64) { s.values = append(s.values, int64(x)) })
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id, name uint64
			err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}

	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	cpu := -1
	for i, t := range sampleTypes {
		if str(t) == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return nil, errors.New("profile: no cpu sample type")
	}
	out := make([]profSample, 0, len(samples))
	for _, s := range samples {
		if cpu >= len(s.values) {
			return nil, errors.New("profile: sample without a cpu value")
		}
		ps := profSample{ns: s.values[cpu]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				ps.stack = append(ps.stack, str(funcNames[fn]))
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

// eachField walks the fields of one protobuf message. fn receives the field
// number and either the varint value (wire type 0) or the bytes of a
// length-delimited field (wire type 2); fixed-width fields are skipped.
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num := int(key >> 3)
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
			if err := fn(num, v, nil); err != nil {
				return err
			}
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(num, 0, b); err != nil {
				return err
			}
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", key&7)
		}
	}
	return nil
}

// eachVarint yields a repeated varint field's values, whether it arrived
// unpacked (one value v, b nil) or packed (b holds the varints).
func eachVarint(v uint64, b []byte, fn func(uint64)) error {
	if b == nil {
		fn(v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		fn(x)
		b = b[n:]
	}
	return nil
}
