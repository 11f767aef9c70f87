package media_test

import (
	"math/rand"
	"path/filepath"
	"testing"

	"v2v/internal/codec"
	"v2v/internal/container"
	"v2v/internal/faults"
	"v2v/internal/frame"
	"v2v/internal/media"
	"v2v/internal/rational"
)

// decodeEveryPacket is the random-access reader without a skip path:
// every packet from the keyframe to the target is decoded into a frame.
// Concealing, a damaged packet holds the latest decoded frame (mid-gray
// before the first); failing fast, it returns the error. FrameAtIndex must
// match it frame for frame, error for error and count for count.
type decodeEveryPacket struct {
	c                 *container.Reader
	dec               *codec.Decoder
	conceal           bool
	next              int
	last              *frame.Frame
	decoded, conceals int64
}

func newDecodeEveryPacket(t *testing.T, path string, conceal bool) *decodeEveryPacket {
	t.Helper()
	c, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	info := c.Info()
	dec, err := codec.NewDecoder(codec.Config{Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level})
	if err != nil {
		t.Fatal(err)
	}
	return &decodeEveryPacket{c: c, dec: dec, conceal: conceal, next: -1}
}

func (o *decodeEveryPacket) frameAt(t *testing.T, i int) (*frame.Frame, error) {
	if o.next >= 0 && i == o.next-1 && o.last != nil {
		return o.last, nil
	}
	k, _ := o.c.KeyframeAtOrBefore(i)
	if o.next < 0 || i < o.next || k > o.next {
		o.dec.Reset()
		o.next = k
	}
	for ; o.next <= i; o.next++ {
		data, err := o.c.ReadPacket(o.next)
		if err == nil {
			var fr *frame.Frame
			if fr, err = o.dec.Decode(data); err == nil {
				o.last = fr
				o.decoded++
				continue
			}
		}
		if !media.Concealable(err) {
			t.Fatalf("packet %d: %v", o.next, err)
		}
		if !o.conceal {
			return nil, err
		}
		if o.last == nil {
			info := o.c.Info()
			o.last = frame.New(info.Width, info.Height, frame.FormatYUV420)
			for j := range o.last.Pix {
				o.last.Pix[j] = 128
			}
		}
		o.conceals++
	}
	return o.last, nil
}

func skipInfo(gop int) container.StreamInfo {
	return container.StreamInfo{Codec: codec.FourCC, Width: 64, Height: 32,
		FPS: rational.FromInt(24), Quality: 1, GOP: gop, Level: 2}
}

// writeSkipVideo encodes n moving-gradient frames (every P-frame changes
// every pixel, so a missed or doubled reconstruct shows) and writes them
// as raw packets. damage replaces the DEFLATE body of the listed packets
// with a truncated one: the container's CRC is valid, the decoder fails.
func writeSkipVideo(t *testing.T, path string, info container.StreamInfo, n int, damage map[int]bool) {
	t.Helper()
	enc, err := codec.NewEncoder(codec.Config{Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level})
	if err != nil {
		t.Fatal(err)
	}
	w, err := media.CreateWriter(path, info)
	if err != nil {
		t.Fatal(err)
	}
	rnd := rand.New(rand.NewSource(int64(n)))
	for i := 0; i < n; i++ {
		fr := frame.New(info.Width, info.Height, frame.FormatYUV420)
		for j := range fr.Pix {
			fr.Pix[j] = byte(j*3 + i*7 + rnd.Intn(3))
		}
		frame.Stamp(fr, uint32(i))
		pkt, err := enc.Encode(fr)
		if err != nil {
			t.Fatal(err)
		}
		data := pkt.Data
		if damage[i] {
			data = data[:len(data)/2]
		}
		if err := w.WriteRawPacket(pkt.Key, data); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// accessPattern mixes the reads the executor makes: sequential runs,
// repeats of the last frame, short hops forward, backward seeks, and
// uniform random jumps.
func accessPattern(rnd *rand.Rand, n, length int) []int {
	out := make([]int, 0, length)
	i := 0
	for len(out) < length {
		switch rnd.Intn(5) {
		case 0:
			i++
		case 1: // repeat
		case 2:
			i += 1 + rnd.Intn(15)
		case 3:
			i -= 1 + rnd.Intn(15)
		default:
			i = rnd.Intn(n)
		}
		i = max(0, min(n-1, i))
		out = append(out, i)
	}
	return out
}

// checkAgainstOracle reads path with the same pattern through a
// media.Reader and through decodeEveryPacket, concealing or failing fast,
// requiring equal frames (or errors for the same reads) and equal decode
// and concealment counts.
func checkAgainstOracle(t *testing.T, path string, pattern []int, conceal bool) {
	t.Helper()
	r, err := media.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	r.SetConceal(conceal)
	o := newDecodeEveryPacket(t, path, conceal)
	for step, i := range pattern {
		got, err := r.FrameAtIndex(i)
		want, wantErr := o.frameAt(t, i)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("step %d: FrameAtIndex(%d) err = %v, decoding every packet: %v", step, i, err, wantErr)
		}
		if err == nil && !got.Equal(want) {
			t.Fatalf("step %d: frame %d differs from decoding every packet", step, i)
		}
	}
	st := r.Stats()
	if st.FramesDecoded != o.decoded || st.FramesConcealed != o.conceals {
		t.Fatalf("decoded %d concealed %d, decoding every packet: decoded %d concealed %d",
			st.FramesDecoded, st.FramesConcealed, o.decoded, o.conceals)
	}
}

func TestFrameAtIndexSkipMatchesDecodingEveryPacket(t *testing.T) {
	dir := t.TempDir()
	for _, gop := range []int{1, 5, 24} {
		path := filepath.Join(dir, "clean.vmf")
		writeSkipVideo(t, path, skipInfo(gop), 60, nil)
		rnd := rand.New(rand.NewSource(int64(gop)))
		for trial := 0; trial < 4; trial++ {
			checkAgainstOracle(t, path, accessPattern(rnd, 60, 150), trial%2 == 0)
		}
	}
}

func TestFrameAtIndexSkipConcealment(t *testing.T) {
	// GOP 12 over 48 frames: keyframes at 0, 12, 24, 36.
	cases := []struct {
		name    string
		damaged []int
	}{
		{"undecodable mid-roll", []int{3, 15}},
		{"undecodable run before target", []int{5, 6, 7, 8}},
		{"undecodable keyframe", []int{12, 30}},
		{"undecodable first packet", []int{0, 1}},
	}
	dir := t.TempDir()
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			damage := map[int]bool{}
			var pattern []int
			for _, i := range tc.damaged {
				damage[i] = true
				// The damaged packet as the target, and targets after it
				// in the same GOP, so it falls inside the roll-forward.
				pattern = append(pattern, i, i+1, min(i+4, 47), i)
			}
			path := filepath.Join(dir, "damaged.vmf")
			writeSkipVideo(t, path, skipInfo(12), 48, damage)
			rnd := rand.New(rand.NewSource(int64(tc.damaged[0])))
			pattern = append(pattern, accessPattern(rnd, 48, 200)...)
			checkAgainstOracle(t, path, pattern, true)
			// Failing fast, a read that errors leaves the reader part-way
			// through a roll-forward; the reads after it must still match.
			checkAgainstOracle(t, path, pattern, false)
		})
	}
}

func TestFrameAtIndexSkipConcealsContainerDamage(t *testing.T) {
	// Payload bytes damaged in the file itself (faults.CorruptRange): the
	// container's CRC check rejects those packets before the decoder.
	dir := t.TempDir()
	path := filepath.Join(dir, "corrupt.vmf")
	writeSkipVideo(t, path, skipInfo(12), 48, nil)
	c, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	recs := c.Records()
	c.Close()
	for seed, i := range []int{2, 9, 10, 24, 40} {
		if err := faults.CorruptRange(path, recs[i].Offset+1, 4, int64(seed)); err != nil {
			t.Fatal(err)
		}
	}
	rnd := rand.New(rand.NewSource(7))
	pattern := append([]int{11, 10, 9, 8, 25, 24, 41}, accessPattern(rnd, 48, 300)...)
	checkAgainstOracle(t, path, pattern, true)
	checkAgainstOracle(t, path, pattern, false)
}

func TestSkipAllocatesNothing(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.vmf")
	info := skipInfo(240)
	writeSkipVideo(t, path, info, 40, nil)
	c, err := container.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pkts := make([][]byte, c.NumPackets())
	for i := range pkts {
		if pkts[i], err = c.ReadPacket(i); err != nil {
			t.Fatal(err)
		}
	}
	dec, err := codec.NewDecoder(codec.Config{Width: info.Width, Height: info.Height,
		Quality: info.Quality, GOP: info.GOP, Level: info.Level})
	if err != nil {
		t.Fatal(err)
	}
	if err := dec.Skip(pkts[0]); err != nil {
		t.Fatal(err)
	}
	i := 1
	allocs := testing.AllocsPerRun(30, func() {
		if err := dec.Skip(pkts[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if allocs != 0 {
		t.Errorf("Skip allocates %.2f per P-frame, want 0", allocs)
	}
}

func TestRollForwardAllocatesPerTargetNotPerFrame(t *testing.T) {
	// Alternating targets at the ends of two 24-frame GOPs makes every
	// read roll a whole GOP forward: 23 skips and one decode. Only the
	// returned frame may allocate.
	dir := t.TempDir()
	path := filepath.Join(dir, "a.vmf")
	writeSkipVideo(t, path, skipInfo(24), 48, nil)
	r, err := media.OpenReader(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	targets := []int{23, 47}
	n := 0
	read := func() {
		if _, err := r.FrameAtIndex(targets[n%2]); err != nil {
			t.Fatal(err)
		}
		n++
	}
	read()
	read()
	before := r.Stats().FramesDecoded
	allocs := testing.AllocsPerRun(20, read)
	if per := float64(r.Stats().FramesDecoded-before) / float64(n-2); per < 24 {
		t.Fatalf("fixture: %.1f decodes per read, want a 24-frame roll", per)
	}
	if allocs > 2 {
		t.Errorf("rolling a 24-frame GOP forward allocates %.2f, want <= 2 (the returned frame)", allocs)
	}
}
