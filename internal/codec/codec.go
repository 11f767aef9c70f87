// Package codec implements GV1, a GOP-structured predictive video codec
// over YUV420 frames.
//
// GV1 stands in for H.264 in this reproduction. What matters to the V2V
// optimizer is not compression quality but the structural properties shared
// with every inter-frame codec:
//
//   - Keyframes (I-frames) are decodable in isolation; delta frames
//     (P-frames) require every frame since the previous keyframe, so
//     decoding must start at a keyframe boundary (a group of pictures).
//   - Encoding is much more expensive than decoding (prediction plus
//     entropy-coding search vs. entropy decode plus reconstruction).
//   - Copying an encoded packet is near memcpy speed.
//
// These asymmetries are exactly what stream copying and smart cuts exploit.
//
// Coding scheme: I-frames use left/top spatial prediction, P-frames use
// temporal prediction from the previously *reconstructed* frame (so encoder
// and decoder reconstructions match bit-for-bit). Residuals are uniformly
// quantized by Quality (Quality 1 uses modular arithmetic and is exactly
// lossless) and entropy-coded with DEFLATE.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"time"

	"v2v/internal/frame"
	"v2v/internal/obs"
)

// FourCC identifies the codec in container stream headers.
const FourCC = "GV10"

// Frame type markers, the first byte of every packet.
const (
	frameTypeI = 0x49 // 'I'
	frameTypeP = 0x50 // 'P'
)

// Config holds the coding parameters shared by encoder and decoder. Width
// and Height must be positive and even. Quality is the quantizer step
// (1 = lossless, larger = lossier and smaller). GOP is the keyframe
// interval in frames (1 = all-intra). Level is the DEFLATE effort.
type Config struct {
	Width, Height int
	Quality       int
	GOP           int
	Level         int
}

// Defaults fills unset fields: Quality 1, GOP 48, Level 6.
func (c Config) Defaults() Config {
	if c.Quality <= 0 {
		c.Quality = 1
	}
	if c.GOP <= 0 {
		c.GOP = 48
	}
	if c.Level == 0 {
		c.Level = 6
	}
	return c
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Width <= 0 || c.Height <= 0 {
		return fmt.Errorf("codec: invalid dimensions %dx%d", c.Width, c.Height)
	}
	if c.Width%2 != 0 || c.Height%2 != 0 {
		return fmt.Errorf("codec: dimensions %dx%d must be even", c.Width, c.Height)
	}
	if c.Quality < 1 || c.Quality > 64 {
		return fmt.Errorf("codec: quality %d out of range [1,64]", c.Quality)
	}
	if c.GOP < 1 {
		return fmt.Errorf("codec: GOP %d must be >= 1", c.GOP)
	}
	if c.Level < -2 || c.Level > 9 {
		return fmt.Errorf("codec: flate level %d out of range", c.Level)
	}
	return nil
}

// Packet is one encoded frame.
type Packet struct {
	Key  bool
	Data []byte
}

// Encoder encodes a sequence of frames into packets. Not safe for
// concurrent use.
type Encoder struct {
	cfg      Config
	prev     *frame.Frame // previous reconstruction; nil before first frame
	spare    *frame.Frame // retired reconstruction, reused for the next one
	count    int          // frames since last keyframe
	forceKey bool
	resid    []byte
	buf      bytes.Buffer
	fw       *flate.Writer
	sparePkt []byte // recycled packet buffer (see Recycle)
	rec      *obs.Recorder
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg Config) (*Encoder, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	fw, err := flate.NewWriter(io.Discard, cfg.Level)
	if err != nil {
		return nil, fmt.Errorf("codec: %w", err)
	}
	return &Encoder{cfg: cfg, fw: fw, resid: make([]byte, frame.FormatYUV420.Size(cfg.Width, cfg.Height))}, nil
}

// Config returns the encoder's configuration (with defaults applied).
func (e *Encoder) Config() Config { return e.cfg }

// ForceKeyframe makes the next encoded frame an I-frame. Smart cuts use
// this to restart prediction at splice boundaries.
func (e *Encoder) ForceKeyframe() { e.forceKey = true }

// SetRecorder attributes this encoder's work to a per-request recorder.
// The process-wide encode-stage metrics are updated either way.
func (e *Encoder) SetRecorder(rec *obs.Recorder) { e.rec = rec }

// Encode compresses fr and returns its packet. fr must be YUV420 with the
// configured dimensions.
func (e *Encoder) Encode(fr *frame.Frame) (Packet, error) {
	if fr.Format != frame.FormatYUV420 || fr.W != e.cfg.Width || fr.H != e.cfg.Height {
		return Packet{}, fmt.Errorf("codec: frame %dx%d %v does not match config %dx%d yuv420",
			fr.W, fr.H, fr.Format, e.cfg.Width, e.cfg.Height)
	}
	encStart := time.Now()
	isKey := e.prev == nil || e.count >= e.cfg.GOP || e.forceKey
	e.forceKey = false

	// Reconstructions ping-pong between two buffers: the retiring prev
	// becomes the spare for the encode after this one. Both frames are
	// internal (never returned), so reuse is safe and the steady-state
	// encode loop allocates nothing for reconstructions.
	recon := e.spare
	e.spare = nil
	if recon == nil {
		recon = frame.New(e.cfg.Width, e.cfg.Height, frame.FormatYUV420)
	}
	if isKey {
		e.encodeIntra(fr, recon)
	} else {
		e.encodePredicted(fr, recon)
	}

	e.buf.Reset()
	if isKey {
		e.buf.WriteByte(frameTypeI)
	} else {
		e.buf.WriteByte(frameTypeP)
	}
	e.fw.Reset(&e.buf)
	if _, err := e.fw.Write(e.resid); err != nil {
		return Packet{}, fmt.Errorf("codec: compress: %w", err)
	}
	if err := e.fw.Close(); err != nil {
		return Packet{}, fmt.Errorf("codec: compress: %w", err)
	}

	e.spare = e.prev
	e.prev = recon
	if isKey {
		e.count = 1
	} else {
		e.count++
	}
	// The output buffer comes from the recycle slot when the previous
	// packet was returned via Recycle; continuous-encode paths (media
	// writers, operator-boundary materialization) reach zero steady-state
	// allocations per packet this way.
	data := append(e.sparePkt[:0], e.buf.Bytes()...)
	e.sparePkt = nil
	e.rec.StageObserve(obs.StageEncode, 1, int64(len(data)), time.Since(encStart))
	return Packet{Key: isKey, Data: data}, nil
}

// Recycle hands a packet's buffer back to the encoder for reuse by the
// next Encode. Only recycle packets produced by this encoder whose bytes
// have been fully consumed (written to a container or stream, or
// decoded); the caller must not touch pkt.Data afterwards. Packets that
// are retained — result-cache fills, shard delivery queues — must never
// be recycled.
func (e *Encoder) Recycle(pkt Packet) {
	if cap(pkt.Data) > cap(e.sparePkt) {
		e.sparePkt = pkt.Data[:0]
	}
}

// encodeIntra writes the I-frame residual for fr into e.resid and the
// reconstruction into recon.
//
//v2v:hotpath
func (e *Encoder) encodeIntra(fr, recon *frame.Frame) {
	q := e.cfg.Quality
	off := 0
	sp, rp := fr.Planes(), recon.Planes()
	for pi := range sp {
		w, h := planeDims(e.cfg, pi)
		intraPlane(sp[pi], rp[pi], e.resid[off:off+w*h], w, h, q)
		off += w * h
	}
}

//v2v:hotpath
func intraPlane(src, recon, resid []byte, w, h, q int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			i := y*w + x
			var pred int
			switch {
			case x > 0:
				pred = int(recon[i-1])
			case y > 0:
				pred = int(recon[i-w])
			default:
				pred = 128
			}
			resid[i], recon[i] = code(int(src[i]), pred, q)
		}
	}
}

// encodePredicted writes the P-frame residual (vs. e.prev) into e.resid.
//
//v2v:hotpath
func (e *Encoder) encodePredicted(fr, recon *frame.Frame) {
	q := e.cfg.Quality
	src, prev, rec := fr.Pix, e.prev.Pix, recon.Pix
	if q == 1 {
		for i := range src {
			b := src[i] - prev[i]
			e.resid[i] = b
			rec[i] = prev[i] + b
		}
		return
	}
	for i := range src {
		e.resid[i], rec[i] = code(int(src[i]), int(prev[i]), q)
	}
}

// code quantizes cur against pred with step q, returning the residual byte
// and the reconstructed value. q==1 is exactly lossless via modular
// arithmetic; q>1 zigzag-codes the quantized delta.
func code(cur, pred, q int) (resid, recon byte) {
	if q == 1 {
		b := byte(cur - pred)
		return b, byte(pred + int(b))
	}
	d := cur - pred
	var qv int
	if d >= 0 {
		qv = (d + q/2) / q
	} else {
		qv = -((-d + q/2) / q)
	}
	if qv > 127 {
		qv = 127
	} else if qv < -127 {
		qv = -127
	}
	r := pred + qv*q
	if r < 0 {
		r = 0
	} else if r > 255 {
		r = 255
	}
	return zigzag(qv), byte(r)
}

func zigzag(v int) byte {
	if v >= 0 {
		return byte(v << 1)
	}
	return byte(-v<<1 - 1)
}

func unzigzag(b byte) int {
	if b&1 == 0 {
		return int(b >> 1)
	}
	return -int(b>>1) - 1
}

// Decoder decodes packets back into frames. Decoding must start at a
// keyframe; feeding a P-packet first returns ErrNeedKeyframe. Not safe for
// concurrent use.
//
// The decoder reconstructs every packet into its own reference frame,
// which it never shares: Skip advances that reference in place, and
// Decode advances it and returns a copy. Rolling forward from a keyframe
// to a target therefore costs one inflate and one in-place reconstruct per
// skipped packet, with no frame allocated, cleared or dropped.
type Decoder struct {
	cfg    Config
	ref    []byte // reference frame pixels, allocated at the first keyframe
	hasRef bool   // ref holds the latest reconstruction (false after Reset)
	resid  []byte
	inf    inflater
	rec    *obs.Recorder
	pool   *frame.Pool
}

// ErrNeedKeyframe is returned when a P-frame arrives with no reference —
// the structural constraint that forces plans to open GOPs at keyframes.
var ErrNeedKeyframe = errors.New("codec: packet stream must start at a keyframe")

// ErrUndecodable marks packets whose bitstream is structurally damaged
// (unknown frame type, corrupt or truncated DEFLATE payload). The
// executor's error-concealment mode matches this class to substitute the
// last good frame instead of failing the synthesis.
var ErrUndecodable = errors.New("codec: undecodable packet")

// NewDecoder returns a decoder for the given configuration.
func NewDecoder(cfg Config) (*Decoder, error) {
	cfg = cfg.Defaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Decoder{cfg: cfg, resid: make([]byte, frame.FormatYUV420.Size(cfg.Width, cfg.Height))}, nil
}

// Reset drops the reference frame, e.g. before seeking to a keyframe.
func (d *Decoder) Reset() { d.hasRef = false }

// SetRecorder attributes this decoder's work to a per-request recorder.
// The process-wide decode-stage metrics are updated either way.
func (d *Decoder) SetRecorder(rec *obs.Recorder) { d.rec = rec }

// SetFramePool makes Decode return frames from p. Pooled output changes
// the ownership contract: the caller must Release each decoded frame when
// done with it. The decoder's reference frame is its own, so callers may
// Release in any order relative to later decodes.
func (d *Decoder) SetFramePool(p *frame.Pool) { d.pool = p }

// Decode decompresses one packet and returns the frame. The returned frame
// is owned by the caller (it is not reused by subsequent calls); with a
// frame pool attached (SetFramePool), the caller must Release it when
// finished.
func (d *Decoder) Decode(data []byte) (*frame.Frame, error) {
	decStart := time.Now()
	if err := d.advance(data); err != nil {
		return nil, err
	}
	var out *frame.Frame
	if d.pool != nil {
		out = d.pool.Get(d.cfg.Width, d.cfg.Height, frame.FormatYUV420)
	} else {
		out = frame.New(d.cfg.Width, d.cfg.Height, frame.FormatYUV420)
	}
	copy(out.Pix, d.ref)
	d.rec.StageObserve(obs.StageDecode, 1, int64(len(out.Pix)), time.Since(decStart))
	return out, nil
}

// Skip decodes one packet into the reference frame only, for a frame no
// caller reads: the roll-forward from a keyframe to a random-access
// target. It allocates nothing. Skips count as decodes in the stage
// metrics, since they do the same work apart from the copy out.
//
//v2v:hotpath
func (d *Decoder) Skip(data []byte) error {
	decStart := time.Now()
	if err := d.advance(data); err != nil {
		return err
	}
	d.rec.StageObserve(obs.StageDecode, 1, int64(len(d.ref)), time.Since(decStart))
	return nil
}

// CopyReference returns a copy of the reference frame: the reconstruction
// of the latest packet that decoded, skipped or not. It returns nil when
// there is none (before the first keyframe, or after Reset).
func (d *Decoder) CopyReference() *frame.Frame {
	if !d.hasRef {
		return nil
	}
	out := frame.New(d.cfg.Width, d.cfg.Height, frame.FormatYUV420)
	copy(out.Pix, d.ref)
	return out
}

// advance decodes one packet into the reference frame. On error the
// reference is unchanged: every check and the whole inflate precede the
// reconstruct.
//
//v2v:hotpath
func (d *Decoder) advance(data []byte) error {
	if len(data) < 1 {
		return fmt.Errorf("%w: empty packet", ErrUndecodable) //v2v:nolint(hotpath) cold error path
	}
	ftype := data[0]
	if ftype != frameTypeI && ftype != frameTypeP {
		return fmt.Errorf("%w: unknown frame type 0x%02x", ErrUndecodable, ftype) //v2v:nolint(hotpath) cold error path
	}
	if ftype == frameTypeP && !d.hasRef {
		return ErrNeedKeyframe
	}
	if err := d.inf.inflate(d.resid, data[1:]); err != nil {
		return fmt.Errorf("%w: decompress: %w", ErrUndecodable, err) //v2v:nolint(hotpath) cold error path
	}
	q := d.cfg.Quality
	switch {
	case ftype == frameTypeI:
		if d.ref == nil {
			d.ref = make([]byte, len(d.resid)) //v2v:nolint(hotpath) first keyframe only
		}
		off := 0
		for pi := 0; pi < 3; pi++ {
			w, h := planeDims(d.cfg, pi)
			decodeIntraPlane(d.resid[off:off+w*h], d.ref[off:off+w*h], w, h, q)
			off += w * h
		}
		d.hasRef = true
	case q == 1:
		addBytes(d.ref, d.resid)
	default:
		reconstructQuantized(d.ref, d.resid, q)
	}
	return nil
}

// decodeIntraPlane reconstructs one I-frame plane: each pixel is predicted
// from its left neighbour, the first pixel of a row from the one above it,
// and the first pixel of the plane from 128.
//
//v2v:hotpath
func decodeIntraPlane(resid, out []byte, w, h, q int) {
	resid, out = resid[:w*h], out[:w*h]
	for y := 0; y < h; y++ {
		row, rrow := out[y*w:(y+1)*w], resid[y*w:(y+1)*w]
		pred := 128
		if y > 0 {
			pred = int(out[(y-1)*w])
		}
		if q == 1 {
			for x, r := range rrow {
				v := byte(pred + int(r))
				row[x] = v
				pred = int(v)
			}
			continue
		}
		for x, r := range rrow {
			v := pred + unzigzag(r)*q
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			row[x] = byte(v)
			pred = v
		}
	}
}

// swarHigh has the top bit of every byte lane of a uint64 set.
const swarHigh = 0x8080808080808080

// addBytes adds resid into dst byte by byte, mod 256: the lossless
// P-frame reconstruct, in place. It adds eight byte lanes per uint64: the
// low seven bits of each lane are summed with the top bits cleared, so no
// carry crosses a lane, and the top bits are then restored by XOR, which
// is their sum mod 2. ((x&^H)+(y&^H)) ^ ((x^y)&H) is therefore the
// lane-wise sum mod 256. It works in 32-byte blocks through array
// pointers, which keeps bounds checks out of the block, and leaves a block
// alone when its residual is all zero, as it is across a static
// background. resid must be at least len(dst) long.
//
//v2v:hotpath
func addBytes(dst, resid []byte) {
	n := len(dst)
	resid = resid[:n]
	i := 0
	for ; i+32 <= n; i += 32 {
		r := (*[32]byte)(resid[i:])
		y0 := binary.LittleEndian.Uint64(r[0:])
		y1 := binary.LittleEndian.Uint64(r[8:])
		y2 := binary.LittleEndian.Uint64(r[16:])
		y3 := binary.LittleEndian.Uint64(r[24:])
		if y0|y1|y2|y3 == 0 {
			continue
		}
		d := (*[32]byte)(dst[i:])
		binary.LittleEndian.PutUint64(d[0:], swarAdd(binary.LittleEndian.Uint64(d[0:]), y0))
		binary.LittleEndian.PutUint64(d[8:], swarAdd(binary.LittleEndian.Uint64(d[8:]), y1))
		binary.LittleEndian.PutUint64(d[16:], swarAdd(binary.LittleEndian.Uint64(d[16:]), y2))
		binary.LittleEndian.PutUint64(d[24:], swarAdd(binary.LittleEndian.Uint64(d[24:]), y3))
	}
	for ; i < n; i++ {
		dst[i] += resid[i]
	}
}

// swarAdd adds the eight byte lanes of x and y, each mod 256.
func swarAdd(x, y uint64) uint64 {
	return ((x &^ swarHigh) + (y &^ swarHigh)) ^ ((x ^ y) & swarHigh)
}

// reconstructQuantized is the lossy (q > 1) P-frame reconstruct, in
// place: dst plus the dequantized residual, clamped to [0, 255]. resid
// must be at least len(dst) long.
//
//v2v:hotpath
func reconstructQuantized(dst, resid []byte, q int) {
	resid = resid[:len(dst)]
	for i, p := range dst {
		r := int(p) + unzigzag(resid[i])*q
		if r < 0 {
			r = 0
		} else if r > 255 {
			r = 255
		}
		dst[i] = byte(r)
	}
}

// PacketIsKey inspects a raw packet without decoding it.
func PacketIsKey(data []byte) bool {
	return len(data) > 0 && data[0] == frameTypeI
}

func planeDims(cfg Config, plane int) (w, h int) {
	if plane == 0 {
		return cfg.Width, cfg.Height
	}
	return cfg.Width / 2, cfg.Height / 2
}
