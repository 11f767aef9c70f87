package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strings"
	"time"

	"v2v/internal/dataset"
	"v2v/internal/rational"
)

// Workload names, as passed to --workload.
const (
	wlToS   = "tos-render"
	wlKABR  = "kabr-cut"
	wlServe = "serve-zipf"
)

// parallelism is the engine's shard parallelism and the client count cap:
// the benchmark host has two CPUs.
const parallelism = 2

// kind is one query shape of a workload's mix, named after the paper's
// query it follows (§V, Q1–Q10).
type kind struct {
	ID string
	// Op is clip, splice, grid, blur or boxes.
	Op string
	// Frames is the output length in frames.
	Frames int
	// Render marks queries whose plans must not stream-copy anything.
	Render bool
	// Weight is the kind's share of serve-zipf arrivals (0 counts as 1).
	Weight int
}

// source describes the generated inputs of one workload.
type source struct {
	Profile dataset.Profile
	// Count is the number of videos; Seconds each one's duration.
	Count   int
	Seconds int64
}

// frames returns the number of frames in each source video.
func (s source) frames() int {
	return int(rational.FromInt(s.Seconds).Mul(s.Profile.FPS).Floor())
}

// workloadSpec fixes a workload's sources and query mix; the seed only
// picks offsets, order and (for serve-zipf) the hot set and arrivals.
type workloadSpec struct {
	Name   string
	Source source
	Kinds  []kind
	// Distinct is the number of distinct requests per kind in a closed-loop
	// run; every request is checked against a baseline reference.
	Distinct int
}

func tosSource() source {
	return source{Profile: dataset.ToSProfile(), Count: 1, Seconds: 50}
}

func kabrSource() source {
	return source{Profile: dataset.KABRProfile(), Count: 4, Seconds: 15}
}

// workloads returns the three workload definitions by name.
func workloads() map[string]workloadSpec {
	return map[string]workloadSpec{
		wlToS: {
			Name: wlToS, Source: tosSource(), Distinct: 6,
			Kinds: []kind{
				{ID: "Q3", Op: "grid", Frames: 12, Render: true},
				{ID: "Q4", Op: "blur", Frames: 12, Render: true},
				{ID: "Q7", Op: "splice", Frames: 48},
				{ID: "Q8", Op: "grid", Frames: 24, Render: true},
				{ID: "Q9", Op: "blur", Frames: 48, Render: true},
			},
		},
		wlKABR: {
			Name: wlKABR, Source: kabrSource(), Distinct: 4,
			Kinds: []kind{
				{ID: "Q1", Op: "clip", Frames: 60},
				{ID: "Q2", Op: "splice", Frames: 120},
				{ID: "Q5", Op: "boxes", Frames: 30},
				{ID: "Q6", Op: "clip", Frames: 240},
				{ID: "Q7", Op: "splice", Frames: 480},
				{ID: "Q10", Op: "boxes", Frames: 60},
			},
		},
		wlServe: {
			Name: wlServe, Source: kabrSource(),
			Kinds: []kind{
				{ID: "clip", Op: "clip", Frames: 60, Weight: 2},
				{ID: "splice", Op: "splice", Frames: 120, Weight: 2},
				{ID: "blur", Op: "blur", Frames: 6},
				{ID: "boxes", Op: "boxes", Frames: 30, Weight: 2},
			},
		},
	}
}

// inputs is a generated dataset on disk.
type inputs struct {
	Source source
	Videos []string
	Anns   []string
}

// profileFor returns the generator profile of video i under seed.
func (s source) profileFor(seed int64, i int) dataset.Profile {
	p := s.Profile
	p.Seed = p.Seed + seed*7919 + int64(i)*991
	return p
}

// ingest generates the workload's source videos and annotations into dir
// through dataset (and so the codec and container layers).
func ingest(dir string, s source, seed int64) (*inputs, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ingest: %w", err)
	}
	in := &inputs{Source: s}
	for i := 0; i < s.Count; i++ {
		vid := filepath.Join(dir, fmt.Sprintf("vid%d.vmf", i))
		ann := filepath.Join(dir, fmt.Sprintf("bb%d.json", i))
		if _, err := dataset.Generate(vid, ann, s.profileFor(seed, i), rational.FromInt(s.Seconds)); err != nil {
			return nil, fmt.Errorf("ingest %s: %w", vid, err)
		}
		in.Videos = append(in.Videos, vid)
		in.Anns = append(in.Anns, ann)
	}
	return in, nil
}

// request is one synthesis request of a workload.
type request struct {
	// Key identifies the distinct request (kind plus offsets).
	Key  string
	Kind string
	// Spec is the textual V2V spec.
	Spec string
	// Frames is the expected output length.
	Frames int
	// Render is copied from the request's kind.
	Render bool
	// FPS is the output frame rate (for video seconds).
	FPSNum, FPSDen int64
}

// videoSeconds returns the request's output duration in seconds.
func (r request) videoSeconds() float64 {
	return float64(r.Frames) * float64(r.FPSDen) / float64(r.FPSNum)
}

// taps returns the number of source taps of an op.
func taps(op string) int {
	switch op {
	case "splice", "grid":
		return 4
	}
	return 1
}

// phaser draws clip start frames whose phase within a period is
// stratified, so the work that depends on the phase barely varies with
// the seed, while which period each clip lands in is uniform. For most
// clips the period is the GOP and the range all of it (keyframe
// roll-forward and smart-cut head length depend on the phase). Boxes
// clips use the annotation visibility cycle and a range that makes every
// clip overlap a window where objects show by a similar number of frames,
// so each one draws boxes on part of its frames and the data-aware
// rewrite removes the rest.
type phaser struct {
	rng    *rand.Rand
	period int
	phases []int
}

// newPhaser stratifies the phases of len(order) requests of taps clips
// each over [origin, origin+width) modulo period. The range has one
// stratum per clip; tap j of the i-th request drawn takes stratum
// j·len(order) + order[i], so every multi-tap request spans the whole
// range and costs about the same as its siblings, and order alone decides
// which single-tap request gets which slice.
func newPhaser(rng *rand.Rand, period, origin, width, taps int, order []int) *phaser {
	n := len(order) * taps
	var ph []int
	for _, o := range order {
		for j := 0; j < taps; j++ {
			off := int((float64(j*len(order)+o) + rng.Float64()) * float64(width) / float64(n))
			ph = append(ph, ((origin+off)%period+period)%period)
		}
	}
	return &phaser{rng: rng, period: period, phases: ph}
}

// phaserFor returns the phaser for len(order) requests of kind k over in.
func phaserFor(rng *rand.Rand, in *inputs, k kind, seed int64, order []int) *phaser {
	p := in.Source.Profile
	if k.Op != "boxes" {
		gop := p.GOPFrames()
		return newPhaser(rng, gop, 0, gop, taps(k.Op), order)
	}
	// Objects show during the first VisibleFor seconds of every
	// VisibleEvery-second cycle, shifted by Seed%5 seconds (see
	// dataset.Profile); boxes clips read video 0. Each clip ends
	// boxesMinOverlap to 2×boxesMinOverlap frames into such a window, so
	// every boxes query draws about as many boxes whatever its length.
	fps := p.FPS.Float()
	cycle := int(p.VisibleEvery * fps)
	window := cycle - int(float64(in.Source.profileFor(seed, 0).Seed%5)*fps)
	return newPhaser(rng, cycle, window-k.Frames+boxesMinOverlap, boxesMinOverlap, 1, order)
}

// boxesMinOverlap is the least number of frames a boxes clip shares with
// a window where objects show; it must stay at most half the shortest
// boxes clip and half the window (45 frames on KABR-sim).
const boxesMinOverlap = 15

// start returns a clip start frame in [0, limit] with the next stratified
// phase. limit must be at least one period.
func (p *phaser) start(limit int) int {
	ph := p.phases[0]
	p.phases = p.phases[1:]
	return p.rng.IntN((limit-ph)/p.period+1)*p.period + ph
}

// buildRequest renders one request of kind k over in, drawing its clip
// offsets from ph.
func buildRequest(in *inputs, k kind, ph *phaser) request {
	p := in.Source.Profile
	fps := p.FPS
	step := rational.One.Div(fps)
	n := in.Source.frames()
	at := func(frames int) rational.Rat { return rational.FromInt(int64(frames)).Div(fps) }
	shifted := func(v string, shift rational.Rat) string {
		if shift.Sign() < 0 {
			return fmt.Sprintf("%s[t - %s]", v, shift.Neg())
		}
		return fmt.Sprintf("%s[t + %s]", v, shift)
	}
	// Video names: multi-video datasets draw tap j from video j.
	video := func(j int) int {
		if in.Source.Count > 1 {
			return j % in.Source.Count
		}
		return 0
	}

	var sb strings.Builder
	var keys []string
	segFrames := k.Frames
	if k.Op == "splice" {
		segFrames = k.Frames / 4
	}
	starts := make([]int, taps(k.Op))
	for j := range starts {
		starts[j] = ph.start(n - segFrames - 1)
		keys = append(keys, fmt.Sprint(starts[j]))
	}
	used := map[int]bool{}
	for j := range starts {
		used[video(j)] = true
	}
	fmt.Fprintf(&sb, "timedomain range(0, %s, %s);\nvideos {\n", at(k.Frames), step)
	for i := 0; i < in.Source.Count; i++ {
		if used[i] {
			fmt.Fprintf(&sb, "  vid%d: %q;\n", i, in.Videos[i])
		}
	}
	sb.WriteString("}\n")
	switch k.Op {
	case "clip":
		fmt.Fprintf(&sb, "render(t) = %s;\n", shifted("vid0", at(starts[0])))
	case "blur":
		fmt.Fprintf(&sb, "render(t) = blur(%s, 1.5);\n", shifted("vid0", at(starts[0])))
	case "boxes":
		fmt.Fprintf(&sb, "data {\n  bb0: %q;\n}\n", in.Anns[0])
		fmt.Fprintf(&sb, "render(t) = boxes(%s, %s);\n", shifted("vid0", at(starts[0])), shifted("bb0", at(starts[0])))
	case "grid":
		args := make([]string, 4)
		for j := range args {
			args[j] = shifted(fmt.Sprintf("vid%d", video(j)), at(starts[j]))
		}
		fmt.Fprintf(&sb, "render(t) = grid(%s);\n", strings.Join(args, ", "))
	case "splice":
		sb.WriteString("render(t) = match t {\n")
		for j := 0; j < 4; j++ {
			lo := j * segFrames
			fmt.Fprintf(&sb, "  t in range(%s, %s, %s) => %s,\n", at(lo), at(lo+segFrames), step,
				shifted(fmt.Sprintf("vid%d", video(j)), at(starts[j]-lo)))
		}
		sb.WriteString("};\n")
	default:
		panic("perfbench: unknown op " + k.Op)
	}
	return request{
		Key:  k.ID + "@" + strings.Join(keys, ","),
		Kind: k.ID, Spec: sb.String(), Frames: k.Frames, Render: k.Render,
		FPSNum: fps.Num(), FPSDen: fps.Den(),
	}
}

// rngFor derives an independent generator per purpose from the seed.
func rngFor(seed int64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(seed), stream))
}

// Generator streams, one per seeded choice.
const (
	streamOffsets uint64 = iota + 1
	streamOrder
	streamHot
	streamArrivals
)

// catalogue builds a closed-loop workload's distinct requests: Distinct
// per kind, indexed [kind][i].
func catalogue(in *inputs, w workloadSpec, seed int64) [][]request {
	rng := rngFor(seed, streamOffsets)
	out := make([][]request, len(w.Kinds))
	for ki, k := range w.Kinds {
		ph := phaserFor(rng, in, k, seed, rng.Perm(w.Distinct))
		for i := 0; i < w.Distinct; i++ {
			out[ki] = append(out[ki], buildRequest(in, k, ph))
		}
	}
	return out
}

// orderer yields the closed-loop request order: rounds, each holding
// every kind once in a seeded order with a seeded choice among its
// distinct requests, so any whole number of rounds has equal kind counts.
type orderer struct {
	rng   *rand.Rand
	kinds int
	dist  int
}

func newOrderer(seed int64, part, kinds, distinct int) *orderer {
	return &orderer{rng: rngFor(seed, streamOrder+uint64(part)<<8), kinds: kinds, dist: distinct}
}

// round returns the next round as (kind, request index) pairs.
func (o *orderer) round() [][2]int {
	out := make([][2]int, o.kinds)
	for i, k := range o.rng.Perm(o.kinds) {
		out[i] = [2]int{k, o.rng.IntN(o.dist)}
	}
	return out
}

// arrival is one open-loop request: when it is due and what it asks for.
type arrival struct {
	Due time.Duration
	Req int // index into the schedule's request list
	Hot bool
}

// schedule is serve-zipf's precomputed open-loop run.
type schedule struct {
	Requests []request
	Arrivals []arrival
	// HotKeys is the number of distinct hot-set requests (Requests[:HotKeys]).
	HotKeys int
}

// hotPerKind is the number of distinct hot requests of each kind;
// Zipf-distributed draws concentrate on the first of them.
const hotPerKind = 3

// hotOrder assigns the hot set's phase slices, most popular request
// first: the middle slice, then the outer two.
var hotOrder = [hotPerKind]int{1, 0, 2}

// serveSchedule draws serve-zipf's arrivals over seconds at rps: arrival i
// falls uniformly within the i-th 1/rps slot. Arrivals come in blocks
// holding every (kind, hot or fresh) pair Weight times in a seeded order,
// so the mix is the same in every run: half the requests are
// Zipf-weighted draws from a per-kind hot set, the rest fresh offsets
// never requested before. The weights and lengths put the latency median
// inside the boxes cluster and p90 inside the splice-and-blur cluster,
// not on an edge between two, where a small shift moves it far.
func serveSchedule(in *inputs, w workloadSpec, seed int64, rps float64, seconds float64) schedule {
	n := int(rps * seconds)
	offRNG := rngFor(seed, streamOffsets)
	hotRNG := rngFor(seed, streamHot)
	arrRNG := rngFor(seed, streamArrivals)
	var pairs [][2]int // (kind, 1 if hot)
	for ki, k := range w.Kinds {
		for i := 0; i < max(k.Weight, 1); i++ {
			pairs = append(pairs, [2]int{ki, 1}, [2]int{ki, 0})
		}
	}
	blocks := (n + len(pairs) - 1) / len(pairs)

	// Each kind gets its hot set plus its fresh requests of every block.
	// The most popular hot request takes the middle slice of the phase
	// range, so its cost, which weighs on every percentile, does not
	// depend on the seed.
	var s schedule
	fresh := make([]*phaser, len(w.Kinds))
	for ki, k := range w.Kinds {
		hot := phaserFor(offRNG, in, k, seed, hotOrder[:])
		for h := 0; h < hotPerKind; h++ {
			s.Requests = append(s.Requests, buildRequest(in, k, hot))
		}
		fresh[ki] = phaserFor(offRNG, in, k, seed, offRNG.Perm(blocks*max(k.Weight, 1)))
	}
	s.HotKeys = len(s.Requests)
	zipf := rand.NewZipf(hotRNG, 1.2, 1, hotPerKind-1)
	slot := time.Duration(float64(time.Second) / rps)
	var order []int
	for i := 0; i < n; i++ {
		if len(order) == 0 {
			order = hotRNG.Perm(len(pairs))
		}
		ki, hot := pairs[order[0]][0], pairs[order[0]][1] == 1
		order = order[1:]
		a := arrival{Due: time.Duration(i)*slot + time.Duration(arrRNG.Float64()*float64(slot)), Hot: hot}
		if hot {
			a.Req = ki*hotPerKind + int(zipf.Uint64())
		} else {
			a.Req = len(s.Requests)
			s.Requests = append(s.Requests, buildRequest(in, w.Kinds[ki], fresh[ki]))
		}
		s.Arrivals = append(s.Arrivals, a)
	}
	return s
}
