package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"syscall"
	"time"

	"v2v"
	"v2v/internal/media"
)

// queryRecord is one measured closed-loop query.
type queryRecord struct {
	Kind string
	Key  string
	// LatencyS runs from the call to the client parsing the trailer;
	// TTFFS to the client parsing the first complete packet.
	LatencyS float64
	TTFFS    float64
	Digest   string
	Packets  int
	Copied   int64
	// SmartCuts is the optimizer's smart-cut count for the plan.
	SmartCuts int
	Render    bool
	VideoS    float64
	Err       string
}

// workerPlan is what the parent hands the measuring child process.
type workerPlan struct {
	Workload  string
	Seed      int64
	Seconds   float64
	Trace     bool
	Dir       string
	Catalogue [][]request
	// Part numbers the child among the run's measuring children; it picks
	// the child's stream of request orders.
	Part int
	// MinQueries is the least number of queries the untraced window runs,
	// even past Seconds on a slow host.
	MinQueries int
}

// workerResult is what the measuring child reports back.
type workerResult struct {
	WarmupS float64
	// Records holds every query of the measured window(s), warm-up
	// excluded; Traced marks how many trailing records came from the
	// traced half.
	Records []queryRecord
	Traced  int
	// WindowS and CPUS cover the untraced window only.
	WindowS float64
	CPUS    float64
	// Layers holds the traced run's per-layer metrics.
	Layers []metric
	// PeakRSSMiB is the child's own peak resident set (VmHWM), read at the
	// end: rusage from wait4 would also count the parent's resident set
	// inherited at fork.
	PeakRSSMiB float64
}

// cpuSeconds returns the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// clientResult is what a stream consumer observed.
type clientResult struct {
	first, end time.Duration
	packets    int
	digest     string
	err        error
}

// consume parses a VMS stream as a client would, timing the first
// complete packet and the end-of-stream trailer from start, and digests
// every byte it read. It drains r whatever happens, so the producer never
// blocks on an abandoned reader.
func consume(r io.Reader, start time.Time) (c clientResult) {
	h := sha256.New()
	tr := io.TeeReader(r, h)
	defer func() {
		// The parse outcome is already decided; a drain error changes
		// nothing the caller reports.
		_, _ = io.Copy(io.Discard, tr)
		c.digest = hex.EncodeToString(h.Sum(nil))
	}()
	sr, err := media.NewStreamReader(tr)
	if err != nil {
		c.err = err
		return c
	}
	for {
		_, _, err := sr.NextPacket()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			c.err = err
			return c
		}
		if c.packets == 0 {
			c.first = time.Since(start)
		}
		c.packets++
	}
	c.end = time.Since(start)
	if t, ok := sr.Trailer(); !ok || t.Status != "ok" || t.Packets != int64(c.packets) {
		c.err = fmt.Errorf("stream ended without a matching ok trailer")
	}
	return c
}

// runPrepared measures one query through the public API: parse,
// v2v.Prepare, then streaming synthesis into a pipe a client goroutine
// parses.
func runPrepared(ctx context.Context, req request) queryRecord {
	rec := queryRecord{Kind: req.Kind, Key: req.Key, Render: req.Render}
	pw, wait := startClient(time.Now())
	err := func() error {
		spec, err := v2v.ParseSpec(req.Spec)
		if err != nil {
			return err
		}
		o := engineOptions()
		p, err := v2v.Prepare(spec, o)
		if err != nil {
			return err
		}
		res, err := p.SynthesizeStreamContext(ctx, pw, o)
		if err != nil {
			return err
		}
		rec.Copied = res.Metrics.Output.PacketsCopied
		rec.SmartCuts = p.OptStats.SmartCuts
		return nil
	}()
	return finish(rec, req, wait(err), err)
}

// startClient starts a client goroutine consuming a new pipe, timing from
// start. The producer writes to the returned writer and then calls wait
// with its error, which closes the pipe and returns what the client
// observed once it has finished.
func startClient(start time.Time) (*io.PipeWriter, func(error) clientResult) {
	pr, pw := io.Pipe()
	var c clientResult
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		c = consume(pr, start)
	}()
	return pw, func(err error) clientResult {
		pw.CloseWithError(err)
		wg.Wait()
		return c
	}
}

// finish folds the producer error and the client's observations into rec.
func finish(rec queryRecord, req request, c clientResult, err error) queryRecord {
	if err == nil {
		err = c.err
	}
	if err != nil {
		rec.Err = err.Error()
	}
	rec.LatencyS = c.end.Seconds()
	rec.TTFFS = c.first.Seconds()
	rec.Digest = c.digest
	rec.Packets = c.packets
	rec.VideoS = float64(c.packets) * float64(req.FPSDen) / float64(req.FPSNum)
	return rec
}

// loop runs whole rounds of the request order until seconds have passed
// and at least minQueries queries ran, returning the records, the
// window's wall time and its CPU time.
func loop(seconds float64, minQueries int, ord *orderer, cat [][]request, run func(request) queryRecord) ([]queryRecord, float64, float64) {
	var recs []queryRecord
	cpu0 := cpuSeconds()
	start := time.Now()
	for time.Since(start).Seconds() < seconds || len(recs) < minQueries {
		for _, p := range ord.round() {
			recs = append(recs, run(cat[p[0]][p[1]]))
		}
	}
	return recs, time.Since(start).Seconds(), cpuSeconds() - cpu0
}

// videoSeconds sums the delivered video of successful records.
func videoSeconds(recs []queryRecord) float64 {
	var s float64
	for _, r := range recs {
		if r.Err == "" {
			s += r.VideoS
		}
	}
	return s
}

// runWorker is the measuring child: a warm-up round, then the measured
// window (untraced), or an untraced half and a traced half.
func runWorker(ctx context.Context, planPath, outPath string) error {
	raw, err := os.ReadFile(planPath)
	if err != nil {
		return err
	}
	var wp workerPlan
	if err := json.Unmarshal(raw, &wp); err != nil {
		return fmt.Errorf("worker plan: %w", err)
	}
	prepared := func(r request) queryRecord { return runPrepared(ctx, r) }
	var res workerResult
	start := time.Now()
	for _, reqs := range wp.Catalogue {
		if rec := prepared(reqs[0]); rec.Err != "" {
			return fmt.Errorf("warm-up %s: %s", rec.Key, rec.Err)
		}
	}
	res.WarmupS = time.Since(start).Seconds()

	ord := newOrderer(wp.Seed, wp.Part, len(wp.Catalogue), len(wp.Catalogue[0]))
	window := wp.Seconds
	if wp.Trace {
		window /= 2
	}
	res.Records, res.WindowS, res.CPUS = loop(window, wp.MinQueries, ord, wp.Catalogue, prepared)
	if wp.Trace {
		lt := newLayerTracer(wp.Workload)
		samples0 := readRuntime()
		traced, wall, _ := loop(window, 0, ord, wp.Catalogue, func(r request) queryRecord { return lt.run(ctx, r) })
		untracedRate := ratio(videoSeconds(res.Records), res.WindowS)
		tracedRate := ratio(videoSeconds(traced), wall)
		res.Layers = lt.metrics(traced, readRuntime().sub(samples0), 1-ratio(tracedRate, untracedRate))
		res.Records = append(res.Records, traced...)
		res.Traced = len(traced)
		if err := writeTrace(lt.tr, filepath.Join(wp.Dir, "trace.json")); err != nil {
			return err
		}
	}
	if res.PeakRSSMiB, err = procPeakRSS(os.Getpid()); err != nil {
		return err
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	return os.WriteFile(outPath, out, 0o644)
}

// runtimeSample holds the Go runtime counters the traced run diffs.
type runtimeSample struct {
	allocs, gcCPU, totalCPU float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{val(0), val(1), val(2)}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{a.allocs - b.allocs, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU}
}

// spawnWorker runs the measuring child and returns its result. The child
// is killed if ctx ends or this process dies.
func spawnWorker(ctx context.Context, wp workerPlan) (*workerResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	planPath := filepath.Join(wp.Dir, fmt.Sprintf("worker-plan-%d.json", wp.Part))
	outPath := filepath.Join(wp.Dir, fmt.Sprintf("worker-result-%d.json", wp.Part))
	raw, err := json.Marshal(wp)
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(planPath, raw, 0o644); err != nil {
		return nil, err
	}
	logf, err := os.Create(filepath.Join(wp.Dir, fmt.Sprintf("worker-%d.log", wp.Part)))
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	cmd := exec.CommandContext(ctx, self, "--role", "worker", "--plan", planPath, "--out", outPath)
	cmd.Env = append(os.Environ(), workerEnv+"=1")
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Run(); err != nil {
		log, _ := os.ReadFile(logf.Name())
		return nil, fmt.Errorf("worker: %w: %s", err, log)
	}
	out, err := os.ReadFile(outPath)
	if err != nil {
		return nil, err
	}
	var res workerResult
	if err := json.Unmarshal(out, &res); err != nil {
		return nil, fmt.Errorf("worker result: %w", err)
	}
	return &res, nil
}

// workerEnv marks the measuring child (tests re-enter main through it).
const workerEnv = "PERFBENCH_WORKER"

// runClosed runs tos-render or kabr-cut.
func runClosed(ctx context.Context, cfg config, w workloadSpec) (*report, error) {
	rep := &report{Correct: true}
	in, ingestS, err := setupSources(cfg, w.Source)
	if err != nil {
		return nil, err
	}
	cat := catalogue(in, w, cfg.Seed)
	var flat []request
	for _, reqs := range cat {
		flat = append(flat, reqs...)
	}
	refs, err := buildReferences(flat, false, cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	// An untraced run splits its window over workerParts children and
	// reports the median of their warm-ups and peak RSS; a traced run uses
	// one child for its untraced and traced halves.
	parts, minQueries := workerParts, minLatencySample/workerParts
	if cfg.Trace {
		parts, minQueries = 1, 0
	}
	res := &workerResult{}
	var warmups, peaks []float64
	total0, steal0 := hostTicks()
	for part := 0; part < parts; part++ {
		r, err := spawnWorker(ctx, workerPlan{
			Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds / float64(parts), Trace: cfg.Trace,
			Dir: cfg.Dir, Catalogue: cat, Part: part, MinQueries: minQueries,
		})
		if err != nil {
			return nil, err
		}
		warmups = append(warmups, r.WarmupS)
		peaks = append(peaks, r.PeakRSSMiB)
		res.Records = append(res.Records, r.Records...)
		res.Traced += r.Traced
		res.WindowS += r.WindowS
		res.CPUS += r.CPUS
		res.Layers = r.Layers
	}
	res.WarmupS = median(warmups)
	peakMiB := median(peaks)
	steal := stealShare(total0, steal0)

	rep.Attempted = len(res.Records)
	var lat, ttff []float64
	var copied int64
	smartCuts := 0
	for _, r := range res.Records {
		ref := refs[r.Key]
		switch {
		case r.Err != "":
			rep.Failed++
			rep.fail("%s: %s", r.Key, r.Err)
		case r.Digest != ref.Bytes || r.Packets != ref.Frames:
			rep.Failed++
			rep.fail("%s: output differs from the in-process reference", r.Key)
		case r.Render && r.Copied > 0:
			rep.Failed++
			rep.fail("%s: render query stream-copied %d packets", r.Key, r.Copied)
		}
		copied += r.Copied
		smartCuts += r.SmartCuts
	}
	untraced := res.Records[:len(res.Records)-res.Traced]
	for _, r := range untraced {
		if r.Err == "" {
			lat = append(lat, r.LatencyS)
			ttff = append(ttff, r.TTFFS)
		}
	}
	if w.Name == wlKABR && (copied == 0 || smartCuts == 0) {
		rep.fail("kabr-cut did not exercise the copy path (copied %d packets, %d smart cuts)", copied, smartCuts)
	}
	errShare := ratio(float64(rep.Failed), float64(rep.Attempted))
	rep.note("workload %s seed %d: %d queries (%d untraced, %d in the latency sample), %d distinct, window %.2fs",
		w.Name, cfg.Seed, rep.Attempted, len(untraced), len(lat), len(refs), res.WindowS)
	rep.note("error_share %.4f ratio", errShare)
	rep.note("host steal during the measuring children: %.1f%% of CPU time", 100*steal)
	rep.note("setup: ingest %.3fs (median of %d), warm-up %.3fs (median of %d); peak RSS of the children %v MiB",
		ingestS, ingestReps, res.WarmupS, parts, peaks)
	if cfg.Trace {
		rep.Metrics = append(rep.Metrics, res.Layers...)
		return rep, nil
	}
	video := videoSeconds(untraced)
	rep.add("setup_s", ingestS+res.WarmupS, "s")
	rep.add("latency_p50_s", median(lat), "s")
	rep.add("latency_p90_s", quantile(lat, 0.9), "s")
	rep.add("ttff_p50_s", median(ttff), "s")
	rep.add("video_s_per_s", ratio(video, res.WindowS), "video-s/s")
	rep.add("cpu_s_per_video_s", ratio(res.CPUS, video), "s")
	rep.add("peak_rss_mb", peakMiB, "MiB")
	rep.add("ok_share", 1-errShare, "ratio")
	return rep, nil
}

// minLatencySample is the least number of untraced queries a run
// measures, so that p90 has at least ten samples beyond it.
const minLatencySample = 102

// workerParts is how many measuring children an untraced closed-loop run
// splits its window over.
const workerParts = 3

// ingestReps is how many times set-up generates the sources; set-up time
// is the median.
const ingestReps = 3

// setupSources generates the workload's sources ingestReps times, keeps
// the last copy and returns the median ingest time.
func setupSources(cfg config, s source) (*inputs, float64, error) {
	var times []float64
	var in *inputs
	for i := 0; i < ingestReps; i++ {
		dir := filepath.Join(cfg.Dir, fmt.Sprintf("src%d", i))
		start := time.Now()
		got, err := ingest(dir, s, cfg.Seed)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
		if in != nil {
			os.RemoveAll(filepath.Dir(in.Videos[0]))
		}
		in = got
	}
	return in, median(times), nil
}
