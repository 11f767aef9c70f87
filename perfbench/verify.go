package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"io"
	"os"
	"path/filepath"
	"sync"

	"v2v"
	"v2v/internal/baseline"
	"v2v/internal/frame"
	"v2v/internal/media"
)

// reference is the expected output of one distinct request.
type reference struct {
	// Bytes is the SHA-256 of the VMS stream the in-process v2v.Prepare
	// path produces, the format both the closed loop and the server
	// deliver.
	Bytes  string
	Frames int
}

// engineOptions is the configuration the closed-loop workloads measure:
// the full optimizer, parallelism 2, streaming delivery, caches off.
func engineOptions() v2v.Options {
	o := v2v.DefaultOptions()
	o.Parallelism = parallelism
	o.Streaming = true
	return o
}

// synthesizeBytes runs the public Prepare path in process and returns the
// VMS stream. served mirrors v2vserve's configuration: concealment on and
// a result cache, here a fresh one. A result cache makes encoders restart
// at every cacheable segment, so its output is frame-identical to, but
// bitstream-different from, a cache-off run; a warm hit splices the cold
// fill's bytes.
func synthesizeBytes(req request, served bool) ([]byte, error) {
	spec, err := v2v.ParseSpec(req.Spec)
	if err != nil {
		return nil, err
	}
	o := engineOptions()
	if served {
		o.Conceal = true
		o.ResultCache = v2v.NewResultCache(0)
	}
	pr, err := v2v.Prepare(spec, o)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := pr.SynthesizeStreamContext(context.Background(), &buf, o); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// hashFrame folds one decoded frame (geometry, format, planes) into h.
func hashFrame(h hash.Hash, fr *frame.Frame) {
	var hdr [12]byte
	binary.LittleEndian.PutUint32(hdr[0:], uint32(fr.W))
	binary.LittleEndian.PutUint32(hdr[4:], uint32(fr.H))
	binary.LittleEndian.PutUint32(hdr[8:], uint32(fr.Format))
	h.Write(hdr[:])
	h.Write(fr.Pix)
}

// streamFrames decodes a VMS stream and digests its frames; the stream
// must end with the typed ok trailer.
func streamFrames(b []byte) (string, int, error) {
	sr, err := media.NewStreamReader(bytes.NewReader(b))
	if err != nil {
		return "", 0, err
	}
	h := sha256.New()
	n := 0
	for {
		fr, err := sr.NextFrame()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return "", n, err
		}
		hashFrame(h, fr)
		n++
	}
	if tr, ok := sr.Trailer(); !ok || tr.Status != "ok" || tr.Packets != int64(n) {
		return "", n, fmt.Errorf("stream lacks a matching ok trailer (%+v)", tr)
	}
	return hex.EncodeToString(h.Sum(nil)), n, nil
}

// fileFrames decodes a VMF file and digests its frames.
func fileFrames(path string) (string, int, error) {
	r, err := media.OpenReader(path)
	if err != nil {
		return "", 0, err
	}
	defer r.Close()
	h := sha256.New()
	for i := 0; i < r.NumFrames(); i++ {
		fr, err := r.FrameAtIndex(i)
		if err != nil {
			return "", i, err
		}
		hashFrame(h, fr)
	}
	return hex.EncodeToString(h.Sum(nil)), r.NumFrames(), nil
}

// buildReference synthesizes req in process and checks its decoded frames
// against the baseline engine's (both sources and output are lossless, so
// they must be equal). dir receives the baseline's scratch output.
func buildReference(req request, served bool, dir string, tag int) (reference, error) {
	out, err := synthesizeBytes(req, served)
	if err != nil {
		return reference{}, fmt.Errorf("%s: v2v: %w", req.Key, err)
	}
	got, n, err := streamFrames(out)
	if err != nil {
		return reference{}, fmt.Errorf("%s: v2v output: %w", req.Key, err)
	}
	if n != req.Frames {
		return reference{}, fmt.Errorf("%s: v2v output has %d frames, want %d", req.Key, n, req.Frames)
	}
	path := filepath.Join(dir, fmt.Sprintf("baseline-%d.vmf", tag))
	defer os.Remove(path)
	if _, err := baseline.RunSource(req.Spec, path, nil); err != nil {
		return reference{}, fmt.Errorf("%s: baseline: %w", req.Key, err)
	}
	want, wn, err := fileFrames(path)
	if err != nil {
		return reference{}, fmt.Errorf("%s: baseline output: %w", req.Key, err)
	}
	if got != want || n != wn {
		return reference{}, fmt.Errorf("%s: v2v frames differ from the baseline engine's (%d vs %d frames)", req.Key, n, wn)
	}
	sum := sha256.Sum256(out)
	return reference{Bytes: hex.EncodeToString(sum[:]), Frames: n}, nil
}

// buildReferences computes the reference of every distinct request with
// two workers, keyed by request key.
func buildReferences(reqs []request, served bool, dir string) (map[string]reference, error) {
	type job struct {
		i   int
		req request
	}
	jobs := make(chan job)
	var (
		mu   sync.Mutex
		refs = map[string]reference{}
		errs []error
		wg   sync.WaitGroup
	)
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				ref, err := buildReference(j.req, served, dir, j.i)
				mu.Lock()
				if err != nil {
					errs = append(errs, err)
				} else {
					refs[j.req.Key] = ref
				}
				mu.Unlock()
			}
		}()
	}
	seen := map[string]bool{}
	for i, r := range reqs {
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		jobs <- job{i, r}
	}
	close(jobs)
	wg.Wait()
	return refs, errors.Join(errs...)
}
