package codec_test

import (
	"bytes"
	"compress/flate"
	"io"
	"math/bits"
	"math/rand"
	"testing"

	"v2v/internal/codec"
	"v2v/internal/dataset"
	"v2v/internal/frame"
)

// flateOracle is the reference decode: compress/flate read through
// io.ReadFull into n bytes.
func flateOracle(in []byte, n int) ([]byte, error) {
	out := make([]byte, n)
	_, err := io.ReadFull(flate.NewReader(bytes.NewReader(in)), out)
	return out, err
}

// checkInflate asserts that the inflater and compress/flate agree on in
// decoded into n bytes: both fail, or both succeed with the same bytes.
func checkInflate(t testing.TB, inflate func(dst, in []byte) error, in []byte, n int, what string) {
	t.Helper()
	want, wantErr := flateOracle(in, n)
	got := make([]byte, n)
	gotErr := inflate(got, in)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("%s (%d input bytes, %d output): inflate err = %v, compress/flate err = %v",
			what, len(in), n, gotErr, wantErr)
	}
	if gotErr == nil && !bytes.Equal(got, want) {
		i := 0
		for got[i] == want[i] {
			i++
		}
		t.Fatalf("%s (%d input bytes, %d output): output differs from compress/flate at byte %d", what, len(in), n, i)
	}
}

func deflate(t testing.TB, data []byte, level int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, level)
	if err != nil {
		t.Fatal(err)
	}
	w.Write(data)
	w.Close()
	return buf.Bytes()
}

// syntheticInputs covers the shapes DEFLATE encoders treat differently:
// long runs, short repeats at every small distance, text-like data,
// incompressible noise, and sizes that span several blocks.
func syntheticInputs(rnd *rand.Rand) map[string][]byte {
	words := []string{"video ", "query ", "frame ", "keyframe ", "splice ", "render ", "GOP ", "\n"}
	var text bytes.Buffer
	for text.Len() < 50000 {
		text.WriteString(words[rnd.Intn(len(words))])
	}
	noise := make([]byte, 70000)
	rnd.Read(noise)
	mixed := make([]byte, 200000)
	for i := 0; i < len(mixed); {
		n := 1 + rnd.Intn(300)
		switch rnd.Intn(4) {
		case 0: // zero run
		case 1: // noise
			rnd.Read(mixed[i:min(i+n, len(mixed))])
		default: // repeat at a small distance
			d := 1 + rnd.Intn(9)
			for j := i; j < min(i+n, len(mixed)); j++ {
				if j >= d {
					mixed[j] = mixed[j-d]
				} else {
					mixed[j] = byte(rnd.Intn(4))
				}
			}
		}
		i += n
	}
	return map[string][]byte{
		"one byte": {42},
		"zeros":    make([]byte, 99072),
		"text":     text.Bytes(),
		"noise":    noise,
		"mixed":    mixed,
	}
}

// realPackets encodes the first frames of a dataset profile with GV1 and
// returns the DEFLATE streams with their decoded size.
func realPackets(t testing.TB, p dataset.Profile, n int) ([][]byte, int) {
	t.Helper()
	cfg := codec.Config{Width: p.Width, Height: p.Height, Quality: p.Quality, GOP: p.GOPFrames(), Level: p.Level}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for i := 0; i < n; i++ {
		pkt, err := enc.Encode(p.RenderFrame(i))
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, pkt.Data[1:])
	}
	return out, frame.FormatYUV420.Size(p.Width, p.Height)
}

func TestInflateMatchesFlateOnDatasetPackets(t *testing.T) {
	f := codec.NewInflater()
	for _, p := range []dataset.Profile{dataset.ToSProfile(), dataset.KABRProfile(), dataset.TinyProfile()} {
		streams, size := realPackets(t, p, 6)
		for _, s := range streams {
			checkInflate(t, f, s, size, p.Name+" packet")
		}
	}
}

func TestInflateMatchesFlateAtEveryLevel(t *testing.T) {
	f := codec.NewInflater()
	rnd := rand.New(rand.NewSource(1))
	for name, data := range syntheticInputs(rnd) {
		for level := -2; level <= 9; level++ {
			s := deflate(t, data, level)
			checkInflate(t, f, s, len(data), name)
			// Output shorter than the stream: decoding stops early and
			// ignores everything after; longer: the final block ends first.
			checkInflate(t, f, s, len(data)/2, name+" half output")
			checkInflate(t, f, s, len(data)+1, name+" output past the end")
			// Another stream after the final block: output stops there.
			checkInflate(t, f, append(append([]byte(nil), s...), s...), 2*len(data), name+" concatenated")
		}
	}
}

func TestInflateMatchesFlateOnDamagedStreams(t *testing.T) {
	f := codec.NewInflater()
	rnd := rand.New(rand.NewSource(2))
	var cases []struct {
		s []byte
		n int
	}
	tos, tosSize := realPackets(t, dataset.ToSProfile(), 3)
	for _, s := range tos {
		cases = append(cases, struct {
			s []byte
			n int
		}{s, tosSize})
	}
	for _, data := range syntheticInputs(rnd) {
		for _, level := range []int{-2, 0, 1, 6, 9} {
			cases = append(cases, struct {
				s []byte
				n int
			}{deflate(t, data, level), len(data)})
		}
	}
	for _, c := range cases {
		// Truncation at every point near both ends and at random points.
		for cut := 0; cut < len(c.s); cut++ {
			if cut > 24 && cut < len(c.s)-24 && rnd.Intn(len(c.s)/8+1) != 0 {
				continue
			}
			checkInflate(t, f, c.s[:cut], c.n, "truncated")
		}
		// Bit flips: one, and several at once.
		for trial := 0; trial < 24; trial++ {
			d := append([]byte(nil), c.s...)
			for k := 0; k <= trial%4; k++ {
				i := rnd.Intn(len(d))
				if trial%3 == 0 {
					i = rnd.Intn(min(len(d), 64)) // the block header and code tables
				}
				d[i] ^= 1 << rnd.Intn(8)
			}
			checkInflate(t, f, d, c.n, "bit-flipped")
			checkInflate(t, f, d, 1+rnd.Intn(c.n), "bit-flipped, short output")
		}
	}
}

// bitWriter writes a DEFLATE bit stream: fields LSB first, Huffman codes
// MSB first.
type bitWriter struct {
	buf []byte
	acc uint64
	n   uint
}

func (w *bitWriter) bits(v uint64, n uint) {
	w.acc |= v << w.n
	for w.n += n; w.n >= 8; w.n -= 8 {
		w.buf = append(w.buf, byte(w.acc))
		w.acc >>= 8
	}
}

func (w *bitWriter) code(codes []uint16, lens []uint8, sym int) {
	l := uint(lens[sym])
	w.bits(uint64(bits.Reverse16(codes[sym])>>(16-l)), l)
}

func (w *bitWriter) bytes() []byte {
	if w.n > 0 {
		return append(w.buf, byte(w.acc))
	}
	return w.buf
}

// canonical returns the canonical Huffman codes for lens (RFC 1951 3.2.2).
func canonical(lens []uint8) []uint16 {
	var count, next [16]uint16
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	for l := 1; l < 16; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	codes := make([]uint16, len(lens))
	for s, l := range lens {
		if l != 0 {
			codes[s] = next[l]
			next[l]++
		}
	}
	return codes
}

var clenOrder = []int{16, 17, 18, 0, 8, 7, 9, 6, 10, 5, 11, 4, 12, 3, 13, 2, 14, 1, 15}

// dynamicBlock writes a final dynamic-Huffman block whose header says
// nlit and ndist codes, whatever their limits. clens are the code-length
// code's lengths. The code lengths lens (nlit+ndist entries) are sent as
// plain lengths, except that the first covered ones are sent as lead, raw
// code-length symbols with their repeat counts. The resulting
// literal/length code then carries the literals data and end-of-block.
func dynamicBlock(w *bitWriter, nlit, ndist int, clens [19]uint8, lead [][2]int, covered int, lens []uint8, data []int) {
	w.bits(1, 1) // final
	w.bits(2, 2)
	w.bits(uint64(nlit-257), 5)
	w.bits(uint64(ndist-1), 5)
	w.bits(19-4, 4)
	for _, c := range clenOrder {
		w.bits(uint64(clens[c]), 3)
	}
	ccodes := canonical(clens[:])
	repeatBits := map[int]uint{16: 2, 17: 3, 18: 7}
	for _, sym := range lead {
		w.code(ccodes, clens[:], sym[0])
		w.bits(uint64(sym[1]), repeatBits[sym[0]])
	}
	for _, l := range lens[covered:] {
		w.code(ccodes, clens[:], int(l))
	}
	litLens := lens[:nlit]
	litCodes := canonical(litLens)
	for _, sym := range append(data, 256) {
		w.code(litCodes, litLens, sym)
	}
}

func TestInflateMatchesFlateOnHandmadeStreams(t *testing.T) {
	// Streams an encoder never emits, each beside a positive control that
	// both decoders must accept, so a rejection is the tested rule.
	f := codec.NewInflater()
	// 32 codes of length 5: literals 0-14, end-of-block, lengths 257-272.
	lens := func(nlit, ndist int) []uint8 {
		l := make([]uint8, nlit+ndist)
		for s := 0; s < 15; s++ {
			l[s] = 5
		}
		for s := 256; s < 273; s++ {
			l[s] = 5
		}
		return l
	}
	clens := [19]uint8{0: 1, 5: 1}
	data := []int{1, 2, 3, 4, 5, 6, 7}
	dyn := func(nlit, ndist int, lead [][2]int, covered int, cl [19]uint8) []byte {
		var w bitWriter
		dynamicBlock(&w, nlit, ndist, cl, lead, covered, lens(nlit, ndist), data)
		return w.bytes()
	}
	// Fixed-code back-reference after 40000 stored bytes: length 3 at
	// distance code dc with zero extra bits.
	fixedRef := func(dc int) []byte {
		var w bitWriter
		w.bits(0, 3) // stored, not final
		w.bits(0, 5) // pad to the byte
		stored := make([]byte, 40000)
		for i := range stored {
			stored[i] = byte(i)
		}
		w.bits(40000, 16)
		w.bits(^uint64(40000)&0xFFFF, 16)
		for _, b := range stored {
			w.bits(uint64(b), 8)
		}
		w.bits(1, 1)                            // final
		w.bits(1, 2)                            // fixed code
		w.bits(uint64(bits.Reverse16(1)>>9), 7) // symbol 257, code 0000001
		w.bits(uint64(bits.Reverse16(uint16(dc))>>11), 5)
		w.bits(0, 14)
		w.bits(0, 7) // end of block
		return w.bytes()
	}
	// Two fixed-code blocks of one literal each, the first one final.
	afterFinal := func() []byte {
		var w bitWriter
		for _, lit := range []uint16{'a', 'b'} {
			w.bits(1, 1)
			w.bits(1, 2)
			w.bits(uint64(bits.Reverse16(0x30+lit)>>8), 8)
			w.bits(0, 7)
		}
		return w.bytes()
	}
	cl16 := [19]uint8{16: 1, 5: 2, 0: 2}
	valid := map[string]struct {
		s []byte
		n int
	}{
		"dynamic, HLIT 273 (control)":        {dyn(273, 1, nil, 0, clens), len(data)},
		"dynamic, HDIST 30 (control)":        {dyn(273, 30, nil, 0, clens), len(data)},
		"fixed, distance code 29":            {fixedRef(29), 40003},
		"repeat 16 after a length (control)": {dyn(273, 1, [][2]int{{5, 0}, {16, 0}}, 4, cl16), len(data)},
	}
	for name, c := range valid {
		if _, err := flateOracle(c.s, c.n); err != nil {
			t.Fatalf("%s: fixture rejected by compress/flate: %v", name, err)
		}
		checkInflate(t, f, c.s, c.n, name)
	}
	cases := map[string][]byte{
		"empty input":              {},
		"block type 3":             {0x07},
		"stored, LEN/NLEN differ":  {0x01, 0x02, 0x00, 0x00, 0x00},
		"stored, empty then short": {0x00, 0x00, 0x00, 0xFF, 0xFF, 0x01, 0x01, 0x00, 0xFE, 0xFF, 'x'},
		"stored, truncated data":   {0x01, 0x05, 0x00, 0xFA, 0xFF, 'a', 'b'},
		"fixed, only EOB":          {0x03, 0x00},
		"fixed, trailing garbage":  {0x4B, 0x04, 0x00, 0xFF, 0xFF, 0xFF},
		"dynamic, all ones":        {0xFD, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF},
		"dynamic, HLIT 287":        dyn(287, 1, nil, 0, clens),
		"dynamic, HLIT 288":        dyn(288, 1, nil, 0, clens),
		"dynamic, HDIST 31":        dyn(273, 31, nil, 0, clens),
		"dynamic, repeat 16 first": dyn(273, 1, [][2]int{{16, 0}, {5, 0}}, 4, cl16),
		"fixed, distance code 30":  fixedRef(30),
		"fixed, distance code 31":  fixedRef(31),
		"fixed, data after final":  afterFinal(),
	}
	for name, s := range cases {
		for _, n := range []int{0, 1, 2, 5, len(data), 100, 40003} {
			checkInflate(t, f, s, n, name)
		}
	}
}

// FuzzInflate decodes arbitrary bytes into an arbitrary output length and
// checks the inflater against compress/flate: the same accept/reject
// decision, and on success the same bytes.
func FuzzInflate(f *testing.F) {
	streams, size := realPackets(f, dataset.TinyProfile(), 2)
	for _, s := range streams {
		f.Add(s, uint16(size))
		f.Add(s[:len(s)/2], uint16(size))
	}
	f.Add([]byte{0x01, 0x03, 0x00, 0xFC, 0xFF, 'a', 'b', 'c'}, uint16(3))
	f.Add([]byte{0x4B, 0x04, 0x00}, uint16(1))
	f.Add([]byte{0xFD, 0xFF, 0xFF}, uint16(9))
	inf := codec.NewInflater()
	f.Fuzz(func(t *testing.T, in []byte, n uint16) {
		checkInflate(t, inf, in, int(n), "fuzz")
	})
}

// BenchmarkInflate compares compress/flate with the inflater on ToS-sim
// P-frame packets (long GOPs make these nearly every source decode).
func BenchmarkInflate(b *testing.B) {
	streams, size := realPackets(b, dataset.ToSProfile(), 25)
	streams = streams[1:]
	dst := make([]byte, size)
	b.Run("compress-flate", func(b *testing.B) {
		var src bytes.Reader
		zr := flate.NewReader(&src)
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			src.Reset(streams[i%len(streams)])
			zr.(flate.Resetter).Reset(&src, nil)
			if _, err := io.ReadFull(zr, dst); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("inflater", func(b *testing.B) {
		inflate := codec.NewInflater()
		b.SetBytes(int64(size))
		for i := 0; i < b.N; i++ {
			if err := inflate(dst, streams[i%len(streams)]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
