package codec

import (
	"encoding/binary"
	"errors"
	"math/bits"
)

// inflate.go is the decode side of GV1's entropy layer: a whole-buffer
// RFC 1951 (DEFLATE) decoder. A GV1 packet body is one complete DEFLATE
// stream whose decoded size is known in advance (the residual buffer), so
// the decoder reads bits straight from the packet slice and writes into
// the residual buffer, resolving back-references inside it. There is no
// sliding window, no second copy and no io.Reader plumbing, and the
// Huffman tables live in fixed arrays on the inflater, so a packet decodes
// with no allocation at all.
//
// Accept/reject behaviour matches compress/flate read through io.ReadFull
// into a buffer of the same size, which is what concealment of damaged
// packets depends on:
//
//   - Decoding stops once len(dst) bytes exist: trailing input, a missing
//     final block and damage after that point are all ignored.
//   - Any bit needed before that point that lies past the end of the input
//     is an error. Like compress/flate, a literal/length symbol needs at
//     least as many bits available as the block's end-of-block code is
//     long, even when the symbol's own code is shorter.
//   - A Huffman code must be complete; the only exceptions are an empty
//     code (which fails when used) and a single code of length 1.
//   - HLIT > 286, HDIST > 30, literal/length symbols 286-287, distance
//     codes 30-31, distances beyond the bytes produced so far, a repeat
//     code 16 with no previous length, a repeat running past HLIT+HDIST,
//     a stored block whose LEN and NLEN disagree, and block type 3 are all
//     errors.
//
// The encoder keeps using compress/flate, which stays the oracle in the
// differential tests and FuzzInflate.

var (
	errCorrupt   = errors.New("codec: corrupt DEFLATE stream")
	errTruncated = errors.New("codec: truncated DEFLATE stream")
)

const (
	maxNumLit   = 286 // HLIT limit; symbols 286 and 287 exist only in the fixed code
	maxNumDist  = 30  // HDIST limit; codes 30 and 31 exist only in the fixed code
	maxCodeBits = 15

	litBits  = 10 // root index width of the literal/length table
	distBits = 8  // root index width of the distance table
	clenBits = 7  // code-length codes are at most 7 bits: no sub-tables

	// Table sizes: the root plus the worst case of sub-tables. A sub-table
	// of width w holds a complete sub-tree of depth w, hence at least w+1
	// codes, and w is at most maxCodeBits-rootBits; n codes therefore need
	// at most n/(maxCodeBits-rootBits+1) sub-tables of the widest kind.
	litTableSize  = 1<<litBits + 288/(maxCodeBits-litBits+1)<<(maxCodeBits-litBits)
	distTableSize = 1<<distBits + 32/(maxCodeBits-distBits+1)<<(maxCodeBits-distBits)
)

// Table entries are uint32s:
//
//	bits 0-3   code length in bits (of the whole code, for sub-table entries)
//	bits 4-7   kind: entSym, entLength, entEOB or entLink; 0 means no symbol
//	           owns this bit pattern, or the symbol is invalid (an error)
//	bits 8-11  extra bits that follow the code, or a link's sub-table width
//	bits 16-31 literal byte, base length, base distance, code-length symbol,
//	           or a link's sub-table offset
const (
	entSym    = 1 << 4 // literal, distance or code-length symbol
	entLength = 1 << 5
	entEOB    = 1 << 6
	entLink   = 1 << 7
)

// Static per-symbol entries (without code lengths) for the three alphabets.
var (
	litEntries  [288]uint32
	distEntries [32]uint32
	clenEntries [19]uint32

	fixedLit  [litTableSize]uint32
	fixedDist [distTableSize]uint32
)

// fixedLitMin is the fixed code's end-of-block length (7), which is also
// its shortest code: the bits a fixed-code symbol needs available.
const fixedLitMin = 7

// clenOrder is the order code-length code lengths are transmitted in.
var clenOrder = [19]uint8{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

func init() {
	for s := 0; s < 256; s++ {
		litEntries[s] = entSym | uint32(s)<<16
	}
	litEntries[256] = entEOB
	// Length symbols 257-284 carry 0 extra bits up to 264, then one more
	// extra bit every four symbols; 285 is length 258 with none.
	base := 3
	for s := 257; s < 285; s++ {
		ex := 0
		if s >= 265 {
			ex = (s - 261) / 4
		}
		litEntries[s] = entLength | uint32(ex)<<8 | uint32(base)<<16
		base += 1 << ex
	}
	litEntries[285] = entLength | 258<<16
	for d := 0; d < maxNumDist; d++ {
		if d < 4 {
			distEntries[d] = entSym | uint32(d+1)<<16
			continue
		}
		ex := uint(d-2) >> 1
		distEntries[d] = entSym | uint32(ex)<<8 | uint32(1<<(ex+1)+1+(d&1)<<ex)<<16
	}
	for c := range clenEntries {
		clenEntries[c] = entSym | uint32(c)<<16
	}

	var lens [288]uint8
	for i := range lens {
		switch {
		case i < 144:
			lens[i] = 8
		case i < 256:
			lens[i] = 9
		case i < 280:
			lens[i] = 7
		default:
			lens[i] = 8
		}
	}
	if !buildTable(fixedLit[:], litBits, lens[:], litEntries[:]) {
		panic("codec: fixed literal/length code does not build")
	}
	for i := range lens[:32] {
		lens[i] = 5
	}
	if !buildTable(fixedDist[:], distBits, lens[:32], distEntries[:]) {
		panic("codec: fixed distance code does not build")
	}
}

// inflater holds the per-block Huffman tables of dynamic blocks. Reused
// across packets, it carries no state from one stream to the next.
type inflater struct {
	lit  [litTableSize]uint32
	dist [distTableSize]uint32
	clen [1 << clenBits]uint32
	lens [maxNumLit + maxNumDist]uint8
}

// buildTable fills t with a root table of rootBits index bits (followed by
// sub-tables for longer codes) for the canonical Huffman code given by
// lens, whose symbol s decodes to ents[s]. It reports false for an
// over-subscribed or incomplete code, except that, like compress/flate, it
// accepts an empty code and a single code of length 1; bit patterns no
// symbol owns decode as errors.
func buildTable(t []uint32, rootBits uint, lens []uint8, ents []uint32) bool {
	var count [maxCodeBits + 1]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	left, maxLen, total := 1, 0, 0
	for l := 1; l <= maxCodeBits; l++ {
		left = left<<1 - count[l]
		if left < 0 {
			return false // over-subscribed
		}
		if count[l] > 0 {
			maxLen = l
			total += count[l]
		}
	}
	rootSize := 1 << rootBits
	if total <= 1 {
		// Empty, or one code: only a single length-1 code is usable.
		if total == 1 && maxLen != 1 {
			return false
		}
		clear(t[:rootSize])
	} else if left != 0 {
		return false // incomplete
	}

	// Canonical order: by length, then by symbol.
	var offs [maxCodeBits + 2]int
	for l := 1; l <= maxCodeBits; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	rootMask := rootSize - 1
	code, curLen := 0, 0
	next := rootSize // first free sub-table slot
	subPrefix, subOff := -1, 0
	for _, s := range sorted[:total] {
		l := int(lens[s])
		if l > curLen {
			code <<= uint(l - curLen)
			curLen = l
		}
		rev := int(bits.Reverse16(uint16(code)) >> (16 - uint(l)))
		code++
		e := ents[s] | uint32(l)
		if l <= int(rootBits) {
			for i := rev; i < rootSize; i += 1 << uint(l) {
				t[i] = e
			}
			continue
		}
		if prefix := rev & rootMask; prefix != subPrefix {
			// A new sub-table: wide enough for the remaining codes that
			// share this prefix, which are the next ones in canonical order.
			w := l - int(rootBits)
			for room := 1 << uint(w); w+int(rootBits) < maxLen; room <<= 1 {
				if room -= count[w+int(rootBits)]; room <= 0 {
					break
				}
				w++
			}
			if next+1<<uint(w) > len(t) {
				return false
			}
			subPrefix, subOff = prefix, next
			t[prefix] = entLink | uint32(w)<<8 | uint32(next)<<16
			next += 1 << uint(w)
		}
		w := uint(t[subPrefix]>>8) & 15
		for i := rev >> rootBits; i < 1<<w; i += 1 << uint(l-int(rootBits)) {
			t[subOff+i] = e
		}
		count[l]--
	}
	return true
}

// inflate decodes the DEFLATE stream in into all of dst.
//
//v2v:hotpath
func (f *inflater) inflate(dst, in []byte) error {
	if len(dst) == 0 {
		return nil
	}
	var (
		bb  uint64 // bit buffer, LSB first; bits at and above nb are real input bits or zero
		nb  uint   // valid bits in bb
		pos int    // bytes of in loaded into bb; runs past len(in) while zero-padding
		o   int    // bytes of dst written
		err error
	)
	for {
		if nb < 3 {
			if bb, nb, pos, err = refill(in, bb, nb, pos); err != nil {
				return err
			}
		}
		final := bb&1 != 0
		typ := bb >> 1 & 3
		bb >>= 3
		nb -= 3
		var lit, dist []uint32
		var litMin uint
		switch typ {
		case 0:
			drop := nb & 7
			bb >>= drop
			nb -= drop
			p := pos - int(nb>>3)
			if p+4 > len(in) {
				return errTruncated
			}
			n := int(in[p]) | int(in[p+1])<<8
			if uint16(in[p+2])|uint16(in[p+3])<<8 != ^uint16(n) {
				return errCorrupt
			}
			p += 4
			k := min(n, len(in)-p, len(dst)-o)
			copy(dst[o:o+k], in[p:p+k])
			o += k
			if o == len(dst) {
				return nil
			}
			if k < n {
				return errTruncated
			}
			bb, nb, pos = 0, 0, p+n
			if final {
				return errTruncated
			}
			continue
		case 1:
			lit, dist, litMin = fixedLit[:], fixedDist[:], fixedLitMin
		case 2:
			if bb, nb, pos, litMin, err = f.readTables(in, bb, nb, pos); err != nil {
				return err
			}
			lit, dist = f.lit[:], f.dist[:]
		default:
			return errCorrupt
		}

		// One iteration consumes at most 15+5+15+13 = 48 bits, so a
		// refill to 56 or more covers it.
		for {
			if nb < 48 {
				if pos+8 <= len(in) {
					bb |= binary.LittleEndian.Uint64(in[pos:]) << nb
					pos += int(63-nb) >> 3
					nb |= 56
				} else if bb, nb, pos, err = refill(in, bb, nb, pos); err != nil {
					return err
				}
			}
			mark := nb // nb before this literal/length symbol, for the end check
			e := lit[bb&(1<<litBits-1)]
			if e&entLink != 0 {
				e = lit[e>>16+uint32(bb>>litBits)&(1<<(e>>8&15)-1)]
			}
			n := uint(e & 15)
			bb >>= n
			nb -= n
			if e&entSym != 0 {
				dst[o] = byte(e >> 16)
				o++
				if o == len(dst) {
					return endCheck(in, pos, nb, mark, litMin)
				}
				continue
			}
			if e&entLength == 0 {
				if e&entEOB == 0 {
					return errCorrupt
				}
				break
			}
			ex := uint(e>>8) & 15
			length := int(e>>16) + int(bb&(1<<ex-1))
			bb >>= ex
			nb -= ex

			e = dist[bb&(1<<distBits-1)]
			if e&entLink != 0 {
				e = dist[e>>16+uint32(bb>>distBits)&(1<<(e>>8&15)-1)]
			}
			if e&entSym == 0 {
				return errCorrupt
			}
			n = uint(e & 15)
			bb >>= n
			nb -= n
			ex = uint(e>>8) & 15
			d := int(e>>16) + int(bb&(1<<ex-1))
			bb >>= ex
			nb -= ex
			if d > o {
				return errCorrupt
			}
			end := min(o+length, len(dst))
			if d >= 8 && length <= 32 && end+8 <= len(dst) {
				// Short match, the common case: word copies inline (see
				// copyMatch).
				for ; o < end; o += 8 {
					binary.LittleEndian.PutUint64(dst[o:o+8], binary.LittleEndian.Uint64(dst[o-d:o-d+8]))
				}
				o = end
				continue
			}
			copyMatch(dst, o, end, d)
			o = end
			if o == len(dst) {
				return endCheck(in, pos, nb, mark, litMin)
			}
		}
		if final || overread(in, pos, nb) {
			return errTruncated
		}
	}
}

// overread reports whether more bits were consumed than in holds.
func overread(in []byte, pos int, nb uint) bool {
	return pos*8-int(nb) > len(in)*8
}

// endCheck validates a stream whose output just completed: every bit
// consumed must be real input, and — as compress/flate requires before it
// decodes any literal/length symbol — the last such symbol must have had
// litMin bits available where it started (mark bits were then buffered).
func endCheck(in []byte, pos int, nb, mark, litMin uint) error {
	if overread(in, pos, nb) || pos*8-int(mark)+int(litMin) > len(in)*8 {
		return errTruncated
	}
	return nil
}

// refill loads bytes into bb until it holds at least 56 bits, padding with
// zero bytes past the end of in. Once the padding is 8 bytes deep some
// consumed bit must have been padding, so it reports the stream truncated.
func refill(in []byte, bb uint64, nb uint, pos int) (uint64, uint, int, error) {
	if pos+8 <= len(in) {
		bb |= binary.LittleEndian.Uint64(in[pos:]) << nb
		return bb, nb | 56, pos + int(63-nb)>>3, nil
	}
	for nb <= 56 {
		if pos < len(in) {
			bb |= uint64(in[pos]) << nb
		} else if pos-len(in) >= 8 {
			return bb, nb, pos, errTruncated
		}
		pos++
		nb += 8
	}
	return bb, nb, pos, nil
}

// readTables reads a dynamic block's code descriptions (RFC 1951 3.2.7)
// and builds f.lit and f.dist. It returns the bits a literal/length symbol
// needs available (see endCheck).
func (f *inflater) readTables(in []byte, bb uint64, nb uint, pos int) (uint64, uint, int, uint, error) {
	var err error
	if nb < 14 {
		if bb, nb, pos, err = refill(in, bb, nb, pos); err != nil {
			return bb, nb, pos, 0, err
		}
	}
	nlit := int(bb&31) + 257
	ndist := int(bb>>5&31) + 1
	nclen := int(bb>>10&15) + 4
	bb >>= 14
	nb -= 14
	if nlit > maxNumLit || ndist > maxNumDist {
		return bb, nb, pos, 0, errCorrupt
	}
	var clens [19]uint8
	for _, c := range clenOrder[:nclen] {
		if nb < 3 {
			if bb, nb, pos, err = refill(in, bb, nb, pos); err != nil {
				return bb, nb, pos, 0, err
			}
		}
		clens[c] = uint8(bb & 7)
		bb >>= 3
		nb -= 3
	}
	if !buildTable(f.clen[:], clenBits, clens[:], clenEntries[:]) {
		return bb, nb, pos, 0, errCorrupt
	}

	lens := f.lens[:nlit+ndist]
	for i := 0; i < len(lens); {
		// A code-length symbol (7 bits) plus its repeat count (7 bits).
		if nb < 14 {
			if bb, nb, pos, err = refill(in, bb, nb, pos); err != nil {
				return bb, nb, pos, 0, err
			}
		}
		e := f.clen[bb&(1<<clenBits-1)]
		if e == 0 {
			return bb, nb, pos, 0, errCorrupt
		}
		n := uint(e & 15)
		bb >>= n
		nb -= n
		sym := e >> 16
		if sym < 16 {
			lens[i] = uint8(sym)
			i++
			continue
		}
		var rep int
		var v uint8
		switch sym {
		case 16:
			if i == 0 {
				return bb, nb, pos, 0, errCorrupt
			}
			rep, v = 3+int(bb&3), lens[i-1]
			bb >>= 2
			nb -= 2
		case 17:
			rep = 3 + int(bb&7)
			bb >>= 3
			nb -= 3
		default:
			rep = 11 + int(bb&127)
			bb >>= 7
			nb -= 7
		}
		if i+rep > len(lens) {
			return bb, nb, pos, 0, errCorrupt
		}
		for end := i + rep; i < end; i++ {
			lens[i] = v
		}
	}
	if overread(in, pos, nb) {
		return bb, nb, pos, 0, errTruncated
	}
	if !buildTable(f.lit[:], litBits, lens[:nlit], litEntries[:]) ||
		!buildTable(f.dist[:], distBits, lens[nlit:], distEntries[:]) {
		return bb, nb, pos, 0, errCorrupt
	}
	// compress/flate raises the literal/length code's minimum to the
	// end-of-block length; with no end-of-block code the minimum is the
	// shortest code, which every symbol's own length already covers.
	return bb, nb, pos, uint(lens[256]), nil
}

// copyMatch writes dst[o:end] as the back-reference at distance dist
// (dist <= o). Overlapping references repeat the last dist bytes, as
// DEFLATE defines.
//
//v2v:hotpath
func copyMatch(dst []byte, o, end, dist int) {
	switch {
	case dist == 1:
		b := dst[o-1]
		if end+8 <= len(dst) {
			v := uint64(b) * 0x0101010101010101
			for ; o < end; o += 8 {
				binary.LittleEndian.PutUint64(dst[o:o+8], v)
			}
			return
		}
		for ; o < end; o++ {
			dst[o] = b
		}
	case dist >= 8 && end+8 <= len(dst) && end-o <= 64:
		// Each 8-byte load ends at or before the store position, so the
		// words never read bytes this copy has yet to write; the store
		// may run up to 7 bytes past end, into output not yet produced.
		for ; o < end; o += 8 {
			binary.LittleEndian.PutUint64(dst[o:o+8], binary.LittleEndian.Uint64(dst[o-dist:o-dist+8]))
		}
	case dist >= end-o:
		copy(dst[o:end], dst[o-dist:])
	default:
		// Overlapping: dst[s:o] repeats with period dist and its length
		// stays a multiple of dist, so each copy doubles it.
		s := o - dist
		for o < end {
			o += copy(dst[o:end], dst[s:o])
		}
	}
}
