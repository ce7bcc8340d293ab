package trace

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"
)

// A DEFLATE (RFC 1951) decoder for v2 chunk payloads. A chunk's frame
// declares its raw length, so the whole stream inflates straight into the
// chunk's raw buffer: match copies read the buffer itself, so there is no
// window and no second copy. The input is a byte slice, read through a
// 64-bit bit buffer refilled eight bytes at a time; each Huffman symbol
// takes one table lookup, plus one into a second-level table for codes
// longer than the first level. Tables are rebuilt in place for each block,
// so a warm inflater allocates nothing.
//
// The decoder accepts exactly what compress/flate does when a chunk's raw
// length is read from it and then one more byte is asked for — the oracle
// FuzzInflate holds it to: a literal/length symbol of a dynamic block needs
// as many bits buffered as the end-of-block code is long, and bytes after
// the final block are ignored.

const (
	litRootBits  = 10
	distRootBits = 8
	clenRootBits = 7 // code-length codes are at most 7 bits: no sub-tables

	maxLitCodes  = 286 // HLIT limit; the fixed code also names 286 and 287
	maxDistCodes = 30  // HDIST limit; the fixed code also names 30 and 31

	// A table holds its root, then one sub-table of 1<<(longest code -
	// root bits) entries for each root prefix that only longer codes
	// share. Each such prefix leads to at least two codes, so a code of n
	// symbols needs at most n/2 sub-tables of at most 1<<(15 - root bits).
	litTableSize  = 1<<litRootBits + 288/2<<(15-litRootBits)
	distTableSize = 1<<distRootBits + 32/2<<(15-distRootBits)
	clenTableSize = 1 << clenRootBits
)

// A table entry packs what one lookup yields:
//
//	bits 0-3    code length to consume (0: no code starts with these bits)
//	bits 4-7    kind flags: literal, end of block, sub-table link, bad symbol;
//	            none for a length or distance
//	bits 8-11   extra bits following the code (lengths and distances)
//	bits 16-31  literal byte, base length or distance, code-length symbol,
//	            or a link's sub-table offset
const (
	entLenMask = 0xF
	entLit     = 1 << 4
	entEOB     = 1 << 5
	entLink    = 1 << 6
	entBad     = 1 << 7
)

// errInflateOverrun reports a stream that produces more bytes than its
// chunk declares.
var errInflateOverrun = errors.New("deflate: stream inflates past the declared length")

// codeOrder is the order of the code-length code lengths (RFC 1951 3.2.7).
var codeOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// Per-symbol entries, without the code length: litSyms for the
// literal/length alphabet, distSyms for distances, clenSyms for code
// lengths.
var litSyms, distSyms, clenSyms = symbolEntries()

func symbolEntries() (lit [288]uint32, dist [32]uint32, clen [19]uint32) {
	for s := range lit {
		switch {
		case s < 256:
			lit[s] = uint32(s)<<16 | entLit
		case s == 256:
			lit[s] = entEOB
		case s == 285:
			lit[s] = 258 << 16
		case s < 265:
			lit[s] = uint32(s-254) << 16
		case s < maxLitCodes:
			// Four symbols per extra-bit count from 1 to 5, starting at 11.
			extra := uint32(s-261) / 4
			base := uint32(3+(4<<extra)) + uint32(s-261)%4<<extra
			lit[s] = base<<16 | extra<<8
		default:
			lit[s] = entBad
		}
	}
	for s := range dist {
		switch {
		case s < 4:
			dist[s] = uint32(s+1) << 16
		case s < maxDistCodes:
			extra := uint32(s-2) / 2
			base := uint32(1+(2<<extra)) + uint32(s%2)<<extra
			dist[s] = base<<16 | extra<<8
		default:
			dist[s] = entBad
		}
	}
	for s := range clen {
		clen[s] = uint32(s) << 16
	}
	return lit, dist, clen
}

// fixedLit and fixedDist decode fixed-Huffman blocks (RFC 1951 3.2.6).
var fixedLit, fixedDist = fixedTables()

func fixedTables() (lit, dist huffTable) {
	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	var dlens [32]uint8
	for s := range dlens {
		dlens[s] = 5
	}
	lit.t = make([]uint32, litTableSize)
	dist.t = make([]uint32, distTableSize)
	if !lit.build(lens[:], litSyms[:], litRootBits) || !dist.build(dlens[:], distSyms[:], distRootBits) {
		panic("trace: fixed Huffman code incomplete")
	}
	return lit, dist
}

// huffTable is one Huffman decoding table.
type huffTable struct {
	t       []uint32 // the root table, then the sub-tables
	subBits uint     // index bits of every sub-table
	min     uint     // shortest code length; 0 for an empty code
}

// build fills h from code lengths lens, where symbol s decodes to syms[s].
// It reports false unless the lengths form a complete prefix code, a single
// one-bit code or no code at all — what compress/flate accepts; bits that
// no code starts with look up an entry of length 0.
func (h *huffTable) build(lens []uint8, syms []uint32, rootBits uint) bool {
	var count [16]int
	var minLen, maxLen uint
	for _, l := range lens {
		if l == 0 {
			continue
		}
		count[l]++
		if minLen == 0 || uint(l) < minLen {
			minLen = uint(l)
		}
		maxLen = max(maxLen, uint(l))
	}
	h.min, h.subBits = minLen, 0
	nRoot := 1 << rootBits
	root := h.t[:nRoot]
	// next[l] is the first canonical code of length l; code ends as the
	// Kraft sum in units of the longest code.
	var next [16]int
	code := 0
	for l := uint(1); l <= maxLen; l++ {
		code <<= 1
		next[l] = code
		code += count[l]
	}
	if code != 1<<maxLen {
		if maxLen > 1 || code > 1 {
			return false
		}
		// No code, or the single one-bit code: the rest match nothing.
		clear(root)
	}
	if maxLen > rootBits {
		h.subBits = maxLen - rootBits
		link := next[rootBits+1] >> 1
		if nRoot+(nRoot-link)<<h.subBits > len(h.t) {
			return false // unreachable for a complete code; see litTableSize
		}
		for j := link; j < nRoot; j++ {
			r := bits.Reverse16(uint16(j)) >> (16 - rootBits)
			h.t[r] = uint32(nRoot+(j-link)<<h.subBits)<<16 | entLink
		}
	}
	for s, l := range lens {
		if l == 0 {
			continue
		}
		r := int(bits.Reverse16(uint16(next[l])) >> (16 - l))
		next[l]++
		e := syms[s] | uint32(l)
		if uint(l) <= rootBits {
			for i := r; i < nRoot; i += 1 << l {
				root[i] = e
			}
			continue
		}
		sub := h.t[h.t[r&(nRoot-1)]>>16:]
		for i := r >> rootBits; i < 1<<h.subBits; i += 1 << (uint(l) - rootBits) {
			sub[i] = e
		}
	}
	return true
}

// inflater decodes DEFLATE streams; its tables are reused from stream to
// stream.
type inflater struct {
	in []byte
	ip int    // next input byte to load into bb
	bb uint64 // bit buffer: the stream's next nb bits, low bit first
	nb uint

	lit, dist, clen huffTable
	minLit          uint // bits a dynamic block's literal/length lookup needs
	lens            [maxLitCodes + maxDistCodes]uint8
}

// inflate decodes the DEFLATE stream in into out. It returns nil once out
// is full and the stream produces no further byte before it ends or fails,
// errInflateOverrun if it produces one, and otherwise the error that
// stopped it short: io.EOF or io.ErrUnexpectedEOF when the stream ends
// cleanly after no or some bytes, like io.ReadFull.
func (d *inflater) inflate(out, in []byte) error {
	d.in, d.ip, d.bb, d.nb = in, 0, 0, 0
	pos, err := d.blocks(out)
	switch {
	case err == errInflateOverrun:
		return err
	case pos == len(out):
		return nil
	case err != nil:
		return err
	case pos == 0:
		return io.EOF
	default:
		return io.ErrUnexpectedEOF
	}
}

// blocks decodes blocks into out until the final one ends or one fails,
// returning how many bytes it wrote.
func (d *inflater) blocks(out []byte) (pos int, err error) {
	if d.lit.t == nil {
		d.lit.t = make([]uint32, litTableSize)
		d.dist.t = make([]uint32, distTableSize)
		d.clen.t = make([]uint32, clenTableSize)
	}
	for {
		if !d.fill(3) {
			return pos, io.ErrUnexpectedEOF
		}
		final := d.bb&1 != 0
		typ := d.bb >> 1 & 3
		d.consume(3)
		switch typ {
		case 0:
			pos, err = d.stored(out, pos)
		case 1:
			pos, err = d.huffman(out, pos, &fixedLit, &fixedDist, fixedLit.min)
		case 2:
			if err = d.dynamicHeader(); err == nil {
				pos, err = d.huffman(out, pos, &d.lit, &d.dist, d.minLit)
			}
		default:
			err = d.corrupt("reserved block type")
		}
		if err != nil || final {
			return pos, err
		}
	}
}

// fill buffers at least n bits, reporting false if the input ends first.
func (d *inflater) fill(n uint) bool {
	for d.nb < n {
		if d.ip == len(d.in) {
			return false
		}
		d.bb |= uint64(d.in[d.ip]) << d.nb
		d.ip++
		d.nb += 8
	}
	return true
}

func (d *inflater) consume(n uint) {
	d.bb >>= n
	d.nb -= n
}

// corrupt reports malformed input at the byte holding the decoder's next
// unread bit.
func (d *inflater) corrupt(what string) error {
	return fmt.Errorf("deflate: %s at payload byte %d", what, (8*d.ip-int(d.nb))/8)
}

// stored copies a stored block's bytes into out at pos.
func (d *inflater) stored(out []byte, pos int) (int, error) {
	// Skip to the byte boundary and hand the whole bytes still buffered
	// back to the input.
	d.ip -= int(d.nb / 8)
	d.bb, d.nb = 0, 0
	in := d.in[d.ip:]
	if len(in) < 4 {
		d.ip = len(d.in)
		return pos, io.ErrUnexpectedEOF
	}
	n := int(binary.LittleEndian.Uint16(in))
	if uint16(n) != ^binary.LittleEndian.Uint16(in[2:]) {
		return pos, d.corrupt("stored block length check fails")
	}
	m := min(n, len(in)-4)
	if m > len(out)-pos {
		return pos, errInflateOverrun
	}
	copy(out[pos:], in[4:4+m])
	d.ip += 4 + m
	pos += m
	if m < n {
		return pos, io.ErrUnexpectedEOF
	}
	return pos, nil
}

// dynamicHeader reads a dynamic block's code lengths and builds its
// literal/length and distance tables.
func (d *inflater) dynamicHeader() error {
	if !d.fill(14) {
		return io.ErrUnexpectedEOF
	}
	nlit := int(d.bb&0x1F) + 257
	ndist := int(d.bb>>5&0x1F) + 1
	nclen := int(d.bb>>10&0xF) + 4
	d.consume(14)
	if nlit > maxLitCodes || ndist > maxDistCodes {
		return d.corrupt("too many length or distance codes")
	}
	var clens [19]uint8
	for _, s := range codeOrder[:nclen] {
		if !d.fill(3) {
			return io.ErrUnexpectedEOF
		}
		clens[s] = uint8(d.bb & 7)
		d.consume(3)
	}
	if !d.clen.build(clens[:], clenSyms[:], clenRootBits) {
		return d.corrupt("invalid code-length code")
	}
	lens := d.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		d.fill(clenRootBits)
		e := d.clen.t[d.bb&(clenTableSize-1)]
		n := uint(e & entLenMask)
		if n == 0 {
			return d.corrupt("invalid code-length symbol")
		}
		if n > d.nb {
			return io.ErrUnexpectedEOF
		}
		d.consume(n)
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		rep, xb, val := 3, uint(2), uint8(0)
		switch sym {
		case 16:
			if i == 0 {
				return d.corrupt("repeated code length with no previous length")
			}
			val = lens[i-1]
		case 17:
			xb = 3
		default:
			rep, xb = 11, 7
		}
		if !d.fill(xb) {
			return io.ErrUnexpectedEOF
		}
		rep += int(d.bb & (1<<xb - 1))
		d.consume(xb)
		if i+rep > len(lens) {
			return d.corrupt("code lengths overrun the alphabet")
		}
		for end := i + rep; i < end; i++ {
			lens[i] = val
		}
	}
	if !d.lit.build(lens[:nlit], litSyms[:], litRootBits) || !d.dist.build(lens[nlit:], distSyms[:], distRootBits) {
		return d.corrupt("invalid literal/length or distance code")
	}
	d.minLit = max(d.lit.min, uint(lens[256]))
	return nil
}

// huffman decodes one Huffman-coded block into out at pos. minLit is how
// many bits a literal/length lookup needs buffered: near the end of the
// input, a shorter symbol that would fit does not decode.
func (d *inflater) huffman(out []byte, pos int, lit, dist *huffTable, minLit uint) (int, error) {
	in := d.in
	bb, nb, ip := d.bb, d.nb, d.ip
	litT := (*[litTableSize]uint32)(lit.t)
	distT := (*[distTableSize]uint32)(dist.t)
	litSub := uint64(1)<<lit.subBits - 1
	distSub := uint64(1)<<dist.subBits - 1
	var err error
	bad := ""
	for {
		// 48 bits hold a whole length/distance pair: a 15-bit code, 5
		// extra bits, a 15-bit code, 13 extra bits. Below that, a refill
		// that leaves fewer bits means the input has ended; the bits
		// above nb are then zero.
		if nb < 48 {
			if ip+8 <= len(in) {
				bb |= binary.LittleEndian.Uint64(in[ip:]) << nb
				ip += int(63-nb) >> 3
				nb |= 56
			} else {
				for ; nb <= 56 && ip < len(in); ip++ {
					bb |= uint64(in[ip]) << nb
					nb += 8
				}
			}
		}
		e := litT[bb&(1<<litRootBits-1)]
		if e&entLink != 0 {
			e = litT[uint64(e>>16)+bb>>litRootBits&litSub]
		}
		n := uint(e & entLenMask)
		if n == 0 {
			bad = "invalid literal/length code"
			break
		}
		// n and minLit are at most 15: one compare clears the common case.
		if nb < 15 && (n > nb || minLit > nb) {
			err = io.ErrUnexpectedEOF
			break
		}
		bb >>= n
		nb -= n
		if e&entLit != 0 {
			if pos == len(out) {
				err = errInflateOverrun
				break
			}
			out[pos] = byte(e >> 16)
			pos++
			continue
		}
		if e&(entEOB|entBad) != 0 {
			if e&entBad != 0 {
				bad = "invalid length symbol"
			}
			break
		}
		xb := uint(e >> 8 & 0xF)
		if xb > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		length := int(e>>16) + int(bb&(1<<xb-1))
		bb >>= xb
		nb -= xb

		e = distT[bb&(1<<distRootBits-1)]
		if e&entLink != 0 {
			e = distT[uint64(e>>16)+bb>>distRootBits&distSub]
		}
		n = uint(e & entLenMask)
		if n == 0 {
			bad = "invalid distance code"
			break
		}
		if n > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		bb >>= n
		nb -= n
		if e&entBad != 0 {
			bad = "invalid distance symbol"
			break
		}
		xb = uint(e >> 8 & 0xF)
		if xb > nb {
			err = io.ErrUnexpectedEOF
			break
		}
		distance := int(e>>16) + int(bb&(1<<xb-1))
		bb >>= xb
		nb -= xb
		if distance > pos {
			bad = "distance past the start of the output"
			break
		}
		if length > len(out)-pos {
			err = errInflateOverrun
			break
		}
		src, end := pos-distance, pos+length
		if distance >= length {
			copy(out[pos:end], out[src:])
			pos = end
		} else {
			// Overlapping: each copy doubles the repeated span.
			for pos < end {
				pos += copy(out[pos:end], out[src:pos])
			}
		}
	}
	d.bb, d.nb, d.ip = bb, nb, ip
	if bad != "" {
		err = d.corrupt(bad)
	}
	return pos, err
}
