package codec_test

import (
	"bytes"
	"testing"

	"v2v/internal/codec"
	"v2v/internal/dataset"
)

// tinyPackets encodes the first n frames of the tiny dataset profile and
// returns the profile's codec configuration with the packets (one
// keyframe, then P-frames).
func tinyPackets(tb testing.TB, n int) (codec.Config, []codec.Packet) {
	tb.Helper()
	p := dataset.TinyProfile()
	cfg := codec.Config{Width: p.Width, Height: p.Height, Quality: p.Quality, GOP: p.GOPFrames(), Level: p.Level}
	enc, err := codec.NewEncoder(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	pkts := make([]codec.Packet, n)
	for i := range pkts {
		if pkts[i], err = enc.Encode(p.RenderFrame(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return cfg, pkts
}

// FuzzDecode feeds arbitrary packets through one long-lived Decoder, the
// way a VMS stream received over HTTP reaches it. Properties: no input
// panics, and after any error a valid keyframe decodes byte-equal to the
// same keyframe on a fresh decoder — the reused inflater carries no
// state from a failed packet into the next one.
func FuzzDecode(f *testing.F) {
	cfg, pkts := tinyPackets(f, 4)
	key := pkts[0].Data
	for _, pkt := range pkts {
		f.Add(pkt.Data)
		f.Add(pkt.Data[:len(pkt.Data)/2])
	}
	f.Add([]byte{})
	f.Add([]byte{'P'})
	f.Add([]byte{'I', 0xFF, 0xFF})
	f.Add(append([]byte{'X'}, key[1:]...))

	fresh, err := codec.NewDecoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	want, err := fresh.Decode(key)
	if err != nil {
		f.Fatal(err)
	}
	dec, err := codec.NewDecoder(cfg)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := dec.Decode(data)
		if err == nil {
			if fr.W != cfg.Width || fr.H != cfg.Height {
				t.Fatalf("decoded %dx%d, configured %dx%d", fr.W, fr.H, cfg.Width, cfg.Height)
			}
			return
		}
		got, err := dec.Decode(key)
		if err != nil {
			t.Fatalf("keyframe after a failed packet: %v", err)
		}
		if !bytes.Equal(got.Pix, want.Pix) {
			t.Fatal("keyframe after a failed packet differs from a fresh decoder's")
		}
	})
}
