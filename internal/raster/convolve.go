package raster

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"v2v/internal/frame"
)

// GaussianBlur applies a separable Gaussian blur with the given sigma to
// every plane. sigma <= 0 returns a clone. This is the pixel-wise filter
// used by benchmark queries Q4/Q9.
func GaussianBlur(src *frame.Frame, sigma float64) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: GaussianBlur wants yuv420, got %v", src.Format))
	}
	if sigma <= 0 {
		return src.Clone()
	}
	kernel := cachedKernel(sigma)
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	// One scratch buffer sized for luma serves all three planes.
	need := src.W*src.H + src.W
	sc, _ := blurScratch.Get().(*[]int32)
	if sc == nil || cap(*sc) < need {
		buf := make([]int32, need)
		sc = &buf
	}
	tmp := (*sc)[:need]
	sp, dp := src.Planes(), dst.Planes()
	blurPlane(sp[0], dp[0], src.W, src.H, kernel, tmp)
	blurPlane(sp[1], dp[1], src.W/2, src.H/2, kernel, tmp)
	blurPlane(sp[2], dp[2], src.W/2, src.H/2, kernel, tmp)
	blurScratch.Put(sc)
	return dst
}

// blurScratch recycles blurPlane's int32 scratch across calls and
// goroutines, so a steady render loop allocates none per plane.
var blurScratch sync.Pool

// kernelCacheMax bounds the kernel cache: a spec whose sigma varies per
// frame would otherwise grow it without limit. Past the bound kernels are
// built per call, as they were before caching.
const kernelCacheMax = 64

var (
	kernelCache   sync.Map // float64 sigma -> []int32, read-only once stored
	kernelEntries atomic.Int32
)

// cachedKernel returns gaussianKernel(sigma), building each distinct sigma
// at most once while the cache has room. Callers must not modify it.
func cachedKernel(sigma float64) []int32 {
	if k, ok := kernelCache.Load(sigma); ok {
		return k.([]int32)
	}
	k := gaussianKernel(sigma)
	if kernelEntries.Load() < kernelCacheMax {
		if _, loaded := kernelCache.LoadOrStore(sigma, k); !loaded {
			kernelEntries.Add(1)
		}
	}
	return k
}

// gaussianKernel builds a normalized integer kernel (scaled by 1<<kShift)
// with radius ceil(3*sigma), capped at 15.
const kShift = 12

func gaussianKernel(sigma float64) []int32 {
	radius := int(math.Ceil(3 * sigma))
	if radius < 1 {
		radius = 1
	}
	if radius > 15 {
		radius = 15
	}
	raw := make([]float64, 2*radius+1)
	var sum float64
	for i := range raw {
		d := float64(i - radius)
		raw[i] = math.Exp(-d * d / (2 * sigma * sigma))
		sum += raw[i]
	}
	k := make([]int32, len(raw))
	var isum int32
	for i, v := range raw {
		k[i] = int32(v / sum * (1 << kShift))
		isum += k[i]
	}
	// Push rounding residue into the center tap so the kernel sums to 1.0.
	k[radius] += (1 << kShift) - isum
	return k
}

// blurPlane blurs one w×h plane from src into dst with edge clamping: a
// horizontal pass into tmp, then a vertical pass into dst. tmp must hold
// at least w*h+w values; its contents are scratch. kernel must be
// symmetric about its centre, as gaussianKernel's are, so the passes add
// each mirrored pair of pixels before one multiply by their shared tap.
//
// Every tap product and sum is an exact int32 (taps are non-negative and
// sum to 1<<kShift, pixels are at most 255), so this loop order is free
// to differ from a per-pixel gather: the results are byte-identical.
//
//v2v:hotpath
func blurPlane(src, dst []byte, w, h int, kernel, tmp []int32) {
	rows, acc := tmp[:w*h], tmp[w*h:w*h+w]
	for y := 0; y < h; y++ {
		blurRowH(src[y*w:(y+1)*w], rows[y*w:(y+1)*w], kernel)
	}
	radius := len(kernel) / 2
	center := kernel[radius]
	for y := 0; y < h; y++ {
		// Row-wise vertical accumulate: whole rows of the horizontal
		// result are scaled and summed into acc, with the clamp applied
		// once per source row rather than once per pixel.
		mid := rows[y*w : (y+1)*w]
		mid = mid[:len(acc)]
		for x := range acc {
			acc[x] = mid[x] * center
		}
		for j := 1; j <= radius; j++ {
			up, down := y-j, y+j
			if up < 0 {
				up = 0
			}
			if down >= h {
				down = h - 1
			}
			a, b := rows[up*w:(up+1)*w], rows[down*w:(down+1)*w]
			a, b = a[:len(acc)], b[:len(acc)]
			kk := kernel[radius+j]
			for x := range acc {
				acc[x] += (a[x] + b[x]) * kk
			}
		}
		drow := dst[y*w : (y+1)*w]
		drow = drow[:len(acc)]
		for x, a := range acc {
			v := a >> kShift
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			drow[x] = byte(v)
		}
	}
}

// blurRowH is the horizontal pass over one row: out[x] is the kernel
// applied around row[x], shifted down by kShift. Pixels within radius of
// either end clamp their taps to the row; the interior, where no tap
// leaves the row, runs one tap pair at a time across all its pixels.
//
//v2v:hotpath
func blurRowH(row []byte, out, kernel []int32) {
	w := len(row)
	out = out[:w]
	radius := len(kernel) / 2
	lo, hi := radius, w-radius
	if hi < lo {
		lo, hi = w, w // no interior: the left edge loop covers the row
	}
	for x := 0; x < lo; x++ {
		out[x] = blurClamped(row, x, kernel)
	}
	if lo < hi {
		in := out[lo:hi]
		mid := row[lo:hi]
		mid = mid[:len(in)]
		center := kernel[radius]
		for x := range in {
			in[x] = int32(mid[x]) * center
		}
		for j := 1; j <= radius; j++ {
			a, b := row[lo-j:hi-j], row[lo+j:hi+j]
			a, b = a[:len(in)], b[:len(in)]
			kk := kernel[radius+j]
			for x := range in {
				in[x] += (int32(a[x]) + int32(b[x])) * kk
			}
		}
		for x, a := range in {
			in[x] = a >> kShift
		}
	}
	for x := hi; x < w; x++ {
		out[x] = blurClamped(row, x, kernel)
	}
}

// blurClamped is one horizontal output pixel with its taps clamped to the
// row.
func blurClamped(row []byte, x int, kernel []int32) int32 {
	radius := len(kernel) / 2
	w := len(row)
	var acc int32
	for k, kk := range kernel {
		sx := x + k - radius
		if sx < 0 {
			sx = 0
		} else if sx >= w {
			sx = w - 1
		}
		acc += int32(row[sx]) * kk
	}
	return acc >> kShift
}

// Convolve3x3 applies a 3x3 kernel (with divisor and bias) to the luma
// plane, leaving chroma untouched. Used by sharpen/edge-detect transforms.
func Convolve3x3(src *frame.Frame, k [9]int, div, bias int) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Convolve3x3 wants yuv420, got %v", src.Format))
	}
	if div == 0 {
		div = 1
	}
	dst := src.Clone()
	sp, dp := src.Planes(), dst.Planes()
	w, h := src.W, src.H
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc int
			idx := 0
			for dy := -1; dy <= 1; dy++ {
				sy := clampInt(y+dy, 0, h-1)
				for dx := -1; dx <= 1; dx++ {
					sx := clampInt(x+dx, 0, w-1)
					acc += int(sp[0][sy*w+sx]) * k[idx]
					idx++
				}
			}
			v := acc/div + bias
			if v < 0 {
				v = 0
			} else if v > 255 {
				v = 255
			}
			dp[0][y*w+x] = byte(v)
		}
	}
	return dst
}

// Sharpen applies a standard unsharp 3x3 kernel to luma.
func Sharpen(src *frame.Frame) *frame.Frame {
	return Convolve3x3(src, [9]int{0, -1, 0, -1, 5, -1, 0, -1, 0}, 1, 0)
}

// EdgeDetect applies a Laplacian kernel to luma and flattens chroma,
// producing a gray edge map in YUV420.
func EdgeDetect(src *frame.Frame) *frame.Frame {
	out := Convolve3x3(src, [9]int{-1, -1, -1, -1, 8, -1, -1, -1, -1}, 1, 0)
	p := out.Planes()
	for i := range p[1] {
		p[1][i] = 128
		p[2][i] = 128
	}
	return out
}

// Grade adjusts brightness (additive, -255..255) and contrast (multiplier
// about the mid-point, e.g. 1.2) on the luma plane and saturation
// (multiplier about 128) on chroma.
func Grade(src *frame.Frame, brightness int, contrast, saturation float64) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Grade wants yuv420, got %v", src.Format))
	}
	dst := src.Clone()
	p := dst.Planes()
	// Precompute LUTs: deterministic and fast.
	var lumaLUT, chromaLUT [256]byte
	for i := 0; i < 256; i++ {
		v := (float64(i)-128)*contrast + 128 + float64(brightness)
		lumaLUT[i] = clampF(v)
		c := (float64(i)-128)*saturation + 128
		chromaLUT[i] = clampF(c)
	}
	for i, v := range p[0] {
		p[0][i] = lumaLUT[v]
	}
	for i, v := range p[1] {
		p[1][i] = chromaLUT[v]
	}
	for i, v := range p[2] {
		p[2][i] = chromaLUT[v]
	}
	return dst
}

// Denoise applies a 3x3 box filter to all planes — a cheap smoothing
// transform exposed by the Filter grammar.
func Denoise(src *frame.Frame) *frame.Frame {
	if src.Format != frame.FormatYUV420 {
		panic(fmt.Sprintf("raster: Denoise wants yuv420, got %v", src.Format))
	}
	dst := frame.New(src.W, src.H, frame.FormatYUV420)
	sp, dp := src.Planes(), dst.Planes()
	boxPlane(sp[0], dp[0], src.W, src.H)
	boxPlane(sp[1], dp[1], src.W/2, src.H/2)
	boxPlane(sp[2], dp[2], src.W/2, src.H/2)
	return dst
}

func boxPlane(src, dst []byte, w, h int) {
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			var acc, n int
			for dy := -1; dy <= 1; dy++ {
				sy := y + dy
				if sy < 0 || sy >= h {
					continue
				}
				for dx := -1; dx <= 1; dx++ {
					sx := x + dx
					if sx < 0 || sx >= w {
						continue
					}
					acc += int(src[sy*w+sx])
					n++
				}
			}
			dst[y*w+x] = byte(acc / n)
		}
	}
}

func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

func clampF(v float64) byte {
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return byte(v + 0.5)
}
