package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"v2v/internal/obs"
)

// Cache budgets for serve-zipf, in MiB. The arbitrated total sits well
// below the decoded working set of the hot set plus the fresh offsets, so
// fills evict; the per-cache budgets are small enough that both caches
// hold more than their protected floor (half their budget), which is what
// lets the arbiter evict at all.
const (
	serveGOPCacheMB    = 16
	serveResultCacheMB = 2
	serveCacheBudgetMB = 12
)

// server is a running v2vserve child process.
type server struct {
	cmd  *exec.Cmd
	base string
	log  *os.File
	done chan struct{}
}

// startServer launches v2vserve on an ephemeral loopback port, reads the
// port back from the kernel's socket table and waits for /healthz. Its
// standard error goes to logPath.
func startServer(ctx context.Context, bin, dir, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-listen", "127.0.0.1:0",
		"-specs", dir,
		"-parallel", strconv.Itoa(parallelism),
		"-gop-cache-mb", strconv.Itoa(serveGOPCacheMB),
		"-result-cache-mb", strconv.Itoa(serveResultCacheMB),
		"-cache-budget-mb", strconv.Itoa(serveCacheBudgetMB),
		"-flight-recorder-size", "4096",
		"-drain", "5s",
	)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	s := &server{cmd: cmd, log: logf, done: make(chan struct{})}
	go func() {
		// Wait reaps the process; stop and the health loop watch done.
		_ = cmd.Wait()
		close(s.done)
	}()
	deadline := time.Now().Add(20 * time.Second)
	for {
		if port, err := listenPort(cmd.Process.Pid); err == nil {
			s.base = fmt.Sprintf("http://127.0.0.1:%d", port)
			if resp, err := http.Get(s.base + "/healthz"); err == nil {
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return s, nil
				}
			}
		}
		select {
		case <-s.done:
			s.log.Close()
			log, _ := os.ReadFile(logPath)
			return nil, fmt.Errorf("v2vserve exited during start-up: %s", log)
		case <-ctx.Done():
			s.stop()
			return nil, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if time.Now().After(deadline) {
			s.stop()
			return nil, errors.New("v2vserve did not answer /healthz within 20s")
		}
	}
}

// stop sends SIGTERM, escalates to SIGKILL after five seconds, and
// returns once the process has been reaped.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM) // fails only if already gone
	select {
	case <-s.done:
	case <-time.After(5 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.done
	}
	s.log.Close()
}

// listenPort finds the TCP port pid listens on: it matches the socket
// inodes among the process's open files against the listening sockets in
// /proc/<pid>/net/tcp.
func listenPort(pid int) (int, error) {
	fds, err := os.ReadDir(fmt.Sprintf("/proc/%d/fd", pid))
	if err != nil {
		return 0, err
	}
	inodes := map[string]bool{}
	for _, fd := range fds {
		link, err := os.Readlink(fmt.Sprintf("/proc/%d/fd/%s", pid, fd.Name()))
		if err == nil && strings.HasPrefix(link, "socket:[") {
			inodes[strings.TrimSuffix(strings.TrimPrefix(link, "socket:["), "]")] = true
		}
	}
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/net/tcp", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n")[1:] {
		f := strings.Fields(line)
		// Fields: sl local_address rem_address st ... inode (index 9).
		if len(f) < 10 || f[3] != "0A" || !inodes[f[9]] {
			continue
		}
		_, portHex, ok := strings.Cut(f[1], ":")
		if !ok {
			continue
		}
		port, err := strconv.ParseInt(portHex, 16, 32)
		if err == nil {
			return int(port), nil
		}
	}
	return 0, errors.New("no listening socket yet")
}

// procCPU returns pid's user plus system CPU seconds from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// the 14th and 15th fields of the whole line.
	i := bytes.LastIndexByte(raw, ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return (ut + st) / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat times on Linux.
const clockTicks = 100

// hostTicks returns the machine's total and steal CPU ticks from the
// first line of /proc/stat. Steal is time the hypervisor ran something
// else while this virtual machine's CPUs wanted to run; the notes report
// its share of a window, since it inflates every wall-clock metric.
func hostTicks() (total, steal float64) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	f := strings.Fields(line)
	if len(f) < 9 {
		return 0, 0
	}
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, v := range f[1:9] {
		x, _ := strconv.ParseFloat(v, 64)
		total += x
		if i == 7 {
			steal = x
		}
	}
	return total, steal
}

// stealShare returns the host steal share since the hostTicks sample
// (total0, steal0).
func stealShare(total0, steal0 float64) float64 {
	total, steal := hostTicks()
	return ratio(steal-steal0, total-total0)
}

// procPeakRSS returns pid's peak resident set (VmHWM) in MiB.
func procPeakRSS(pid int) (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM line")
}

// scrape fetches the server's /metrics as a series → value map.
func (s *server) scrape(client *http.Client) (map[string]float64, error) {
	resp, err := client.Get(s.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// getJSON decodes a debug endpoint.
func (s *server) getJSON(client *http.Client, path string, v any) error {
	resp, err := client.Get(s.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// cacheStats is the part of /debug/caches the benchmark reads.
type cacheStats struct {
	GOP *struct {
		Stats struct{ Hits, Misses, Evictions int64 } `json:"stats"`
	} `json:"gop"`
	Result *struct {
		Stats struct{ Hits, Misses, Evictions int64 } `json:"stats"`
	} `json:"result"`
	Arbiter *struct {
		Denied int64 `json:"denied"`
	} `json:"arbiter"`
}

// flightRecords is the part of /debug/requests the benchmark reads.
type flightRecords struct {
	Requests []struct {
		TraceID    string        `json:"trace_id"`
		Outcome    string        `json:"outcome"`
		QueuedWall time.Duration `json:"queued_wall_ns"`
		TTFF       time.Duration `json:"ttff_ns"`
	} `json:"requests"`
}

// served is one open-loop request as the client saw it.
type served struct {
	Req    int
	Hot    bool
	Stream bool
	// Lag is how late the generator sent it; Latency and TTFF run from
	// the due time, FirstFromSend from the send.
	Lag, Latency, TTFF, FirstFromSend time.Duration
	TraceID                           string
	Packets                           int
	Digest                            string
	Err                               string
}

// send issues one request and consumes the response as a streaming
// client would; times run from due.
func send(ctx context.Context, client *http.Client, base string, req request, stream bool, due time.Time) served {
	var out served
	sent := time.Now()
	out.Lag = sent.Sub(due)
	url := base + "/synthesize"
	if stream {
		url += "?stream=1"
	}
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url, strings.NewReader(req.Spec))
	if err != nil {
		out.Err = err.Error()
		return out
	}
	resp, err := client.Do(hreq)
	if err != nil {
		out.Err = err.Error()
		return out
	}
	defer resp.Body.Close()
	out.TraceID = resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		out.Err = fmt.Sprintf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(body)))
		return out
	}
	c := consume(resp.Body, due)
	if c.err != nil {
		out.Err = c.err.Error()
	}
	out.Latency, out.TTFF = c.end, c.first
	out.FirstFromSend = c.first - out.Lag
	out.Packets, out.Digest = c.packets, c.digest
	return out
}

// openLoop replays the schedule with at most parallelism client
// goroutines, each sending the next arrival when it falls due (or at
// once, if the generator runs late). Arrivals from index traceFrom on
// are recorded as spans on tr (nil = untraced).
func openLoop(ctx context.Context, client *http.Client, base string, s schedule, tr *obs.Trace, traceFrom int) ([]served, time.Duration) {
	out := make([]served, len(s.Arrivals))
	var next int
	var mu sync.Mutex
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= len(s.Arrivals) || ctx.Err() != nil {
					return
				}
				a := s.Arrivals[i]
				due := start.Add(a.Due)
				if d := time.Until(due); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				var sp *obs.Span
				if tr != nil && i >= traceFrom {
					sp = tr.StartSpan("request " + s.Requests[a.Req].Kind)
				}
				r := send(ctx, client, base, s.Requests[a.Req], i%2 == 0, due)
				r.Req, r.Hot, r.Stream = a.Req, a.Hot, i%2 == 0
				if sp != nil {
					sp.SetAttr("req", r.TraceID)
					sp.SetAttr("key", s.Requests[a.Req].Key)
					sp.End()
				}
				out[i] = r
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// runServe runs serve-zipf.
func runServe(ctx context.Context, cfg config, w workloadSpec) (*report, error) {
	if cfg.ServerBin == "" || cfg.ServeRPS <= 0 {
		return nil, errors.New("serve-zipf needs --server-bin and a positive --serve-rps")
	}
	rep := &report{Correct: true}
	in, ingestS, err := setupSources(cfg, w.Source)
	if err != nil {
		return nil, err
	}
	s := serveSchedule(in, w, cfg.Seed, cfg.ServeRPS, cfg.Seconds)
	refs, err := buildReferences(s.Requests, true, cfg.Dir)
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	var replay []metric
	if cfg.Trace {
		if replay, err = replayLayers(ctx, s.Requests, cfg); err != nil {
			return nil, err
		}
	}

	// Set-up: median of three server starts, plus a warm-up pass over the
	// hot set.
	var starts []float64
	var srv *server
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		srv, err = startServer(ctx, cfg.ServerBin, cfg.Dir, filepath.Join(cfg.Dir, fmt.Sprintf("server-%d.log", i)))
		if err != nil {
			return nil, err
		}
		starts = append(starts, time.Since(t0).Seconds())
		if i < 2 {
			srv.stop()
		}
	}
	defer srv.stop()
	client := &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: parallelism, MaxIdleConnsPerHost: parallelism, DisableCompression: true,
	}}
	defer client.CloseIdleConnections()
	t0 := time.Now()
	for i := 0; i < s.HotKeys; i++ {
		r := send(ctx, client, srv.base, s.Requests[i], i%2 == 0, time.Now())
		if r.Err != "" || r.Digest != refs[s.Requests[i].Key].Bytes {
			return nil, fmt.Errorf("warm-up %s failed: %q (digest match %v)", s.Requests[i].Key, r.Err, r.Digest == refs[s.Requests[i].Key].Bytes)
		}
	}
	warmS := time.Since(t0).Seconds()

	pid := srv.cmd.Process.Pid
	before, err := snapshotServer(client, srv)
	if err != nil {
		return nil, err
	}
	var tr *obs.Trace
	traceFrom := len(s.Arrivals)
	if cfg.Trace {
		tr = obs.NewTrace("perfbench " + w.Name)
		traceFrom = len(s.Arrivals) / 2
	}
	total0, steal0 := hostTicks()
	results, wall := openLoop(ctx, client, srv.base, s, tr, traceFrom)
	steal := stealShare(total0, steal0)
	after, err := snapshotServer(client, srv)
	if err != nil {
		return nil, err
	}
	peakMiB, err := procPeakRSS(pid)
	if err != nil {
		return nil, err
	}
	var flights flightRecords
	if err := srv.getJSON(client, "/debug/requests", &flights); err != nil {
		return nil, err
	}
	if ctx.Err() != nil {
		return nil, ctx.Err()
	}

	// Correctness and the end-to-end numbers.
	rep.Attempted = len(results)
	var lat, ttff, lags []float64
	var video float64
	hot := 0
	for _, r := range results {
		req := s.Requests[r.Req]
		lags = append(lags, r.Lag.Seconds())
		if r.Hot {
			hot++
		}
		switch {
		case r.Err != "":
			rep.Failed++
			rep.fail("%s: %s", req.Key, r.Err)
			continue
		case r.Digest != refs[req.Key].Bytes || r.Packets != req.Frames:
			rep.Failed++
			rep.fail("%s: served bytes differ from the in-process reference", req.Key)
			continue
		}
		lat = append(lat, r.Latency.Seconds())
		ttff = append(ttff, r.TTFF.Seconds())
		video += req.videoSeconds()
	}
	errShare := ratio(float64(rep.Failed), float64(rep.Attempted))
	hotShare := ratio(float64(hot), float64(len(results)))
	d := after.sub(before)
	resHit := ratio(d.resHits, d.resHits+d.resMisses)
	gap := 1 / cfg.ServeRPS
	lagP90 := quantile(lags, 0.9)
	if !(hotShare > 0 && hotShare < 1) || !(resHit > 0 && resHit < 1) {
		rep.fail("serve-zipf must mix cache reads and fills: hot share %.3f, result-cache hit ratio %.3f", hotShare, resHit)
	}
	if lagP90 > gap/2 {
		rep.fail("generator lag p90 %.1f ms is not small against the %.1f ms inter-arrival gap", lagP90*1e3, gap*1e3)
	}
	rep.note("workload %s seed %d: %d requests at %.1f/s (%d distinct, %.0f%% hot), wall %.2fs",
		w.Name, cfg.Seed, len(results), cfg.ServeRPS, len(refs), 100*hotShare, wall.Seconds())
	rep.note("error_share %.4f ratio", errShare)
	rep.note("host steal during the window: %.1f%% of CPU time", 100*steal)
	rep.note("setup: ingest %.3fs (median of %d), server start %.3fs (median of 3), warm-up %.3fs", ingestS, ingestReps, median(starts), warmS)
	rep.note("window cache deltas: result %.0f hits %.0f misses %.0f evictions, gop %.0f hits %.0f misses %.0f evictions, %.0f arbiter denials",
		d.resHits, d.resMisses, d.resEvictions, d.gopHits, d.gopMisses, d.gopEvictions, d.denied)
	if !cfg.Trace {
		rep.add("setup_s", ingestS+median(starts)+warmS, "s")
		rep.add("latency_p50_s", median(lat), "s")
		rep.add("latency_p90_s", quantile(lat, 0.9), "s")
		rep.add("ttff_p50_s", median(ttff), "s")
		rep.add("video_s_per_s", ratio(video, wall.Seconds()), "video-s/s")
		rep.add("cpu_s_per_video_s", ratio(d.cpu, video), "s")
		rep.add("peak_rss_mb", peakMiB, "MiB")
		rep.add("ok_share", 1-errShare, "ratio")
		return rep, nil
	}

	// Per-layer metrics: inside-server layers from the /metrics and debug
	// diffs, front-half layers from the in-process replay.
	var waits, gaps []float64
	shed := 0
	byID := map[string]int{}
	for i, f := range flights.Requests {
		byID[f.TraceID] = i
	}
	outFrames := 0.0
	for _, r := range results {
		if r.Err == "" {
			outFrames += float64(r.Packets)
		}
		i, ok := byID[r.TraceID]
		if !ok {
			continue
		}
		f := flights.Requests[i]
		waits = append(waits, f.QueuedWall.Seconds())
		if f.Outcome == "shed" {
			shed++
		}
		if r.Stream && r.Err == "" && f.TTFF > 0 {
			gaps = append(gaps, (r.FirstFromSend - f.TTFF).Seconds())
		}
	}
	stage := func(name string) (frames, wall float64) {
		return d.series[fmt.Sprintf(`v2v_stage_frames_total{stage=%q}`, name)],
			d.series[fmt.Sprintf(`v2v_stage_wall_seconds_sum{stage=%q}`, name)]
	}
	decF, decW := stage("decode")
	filF, filW := stage("filter")
	encF, encW := stage("encode")
	copF, copW := stage("copy")
	stageW := decW + filW + encW + copW
	execW := d.series["v2v_synthesis_wall_seconds_sum"]
	execN := d.series["v2v_synthesis_wall_seconds_count"]
	server := map[string]float64{
		"raster.filter_us_per_frame":     ratio(filW*1e6, filF),
		"raster.filter_share":            ratio(filW, stageW),
		"codec.decode_us_per_frame":      ratio(decW*1e6, decF),
		"codec.decodes_per_output_frame": ratio(decF, outFrames),
		"codec.encode_us_per_frame":      ratio(encW*1e6, encF),
		"codec.encodes_per_output_frame": ratio(encF, outFrames),
		"media.copy_us_per_packet":       ratio(copW*1e6, copF),
		"exec.busy_share":                ratio(stageW, execW*parallelism),
		"exec.wall_ms":                   ratio(execW*1e3, execN),
		"frame.pool_recycle_ratio":       ratio(d.series["v2v_frame_pool_recycled_total"], d.series["v2v_frame_pool_gets_total"]),
		"media.rescache_hit_ratio":       resHit,
		"media.rescache_evictions":       d.resEvictions,
		"media.gopcache_hit_ratio":       ratio(d.gopHits, d.gopHits+d.gopMisses),
		"media.gopcache_evictions":       d.gopEvictions,
		"media.arbiter_denied":           d.denied,
		"admit.wait_p90_ms":              quantile(waits, 0.9) * 1e3,
		"admit.shed_share":               ratio(float64(shed), float64(len(results))),
		"serve.cpu_ms_per_request":       ratio(d.cpu*1e3, float64(len(results))),
		"serve.flush_gap_ms":             median(gaps) * 1e3,
		"gen.lag_p90_ms":                 lagP90 * 1e3,
		"gen.hot_share":                  hotShare,
	}
	half := func(rs []served, lo, hi int) float64 {
		var got, want float64
		for _, r := range rs[lo:hi] {
			req := s.Requests[r.Req]
			want += req.videoSeconds()
			if r.Err == "" {
				got += req.videoSeconds()
			}
		}
		return ratio(got, want)
	}
	server["obs.trace_overhead_share"] = 1 - ratio(half(results, traceFrom, len(results)), half(results, 0, traceFrom))
	for _, m := range replay {
		if v, ok := server[m.Name]; ok {
			m.Value = v
		}
		rep.Metrics = append(rep.Metrics, m)
	}
	if err := writeTrace(tr, filepath.Join(cfg.Dir, "trace-client.json")); err != nil {
		return nil, err
	}
	return rep, nil
}

// serverSnapshot is the server state diffed around the measured window.
type serverSnapshot struct {
	series                                               map[string]float64
	cpu                                                  float64
	resHits, resMisses, resEvictions, gopHits, gopMisses float64
	gopEvictions, denied                                 float64
}

func snapshotServer(client *http.Client, srv *server) (serverSnapshot, error) {
	var s serverSnapshot
	var err error
	if s.series, err = srv.scrape(client); err != nil {
		return s, err
	}
	if s.cpu, err = procCPU(srv.cmd.Process.Pid); err != nil {
		return s, err
	}
	var cs cacheStats
	if err := srv.getJSON(client, "/debug/caches", &cs); err != nil {
		return s, err
	}
	if cs.Result == nil || cs.GOP == nil || cs.Arbiter == nil {
		return s, errors.New("/debug/caches lacks the gop, result or arbiter section")
	}
	s.resHits, s.resMisses = float64(cs.Result.Stats.Hits), float64(cs.Result.Stats.Misses)
	s.resEvictions = float64(cs.Result.Stats.Evictions)
	s.gopHits, s.gopMisses = float64(cs.GOP.Stats.Hits), float64(cs.GOP.Stats.Misses)
	s.gopEvictions = float64(cs.GOP.Stats.Evictions)
	s.denied = float64(cs.Arbiter.Denied)
	return s, nil
}

func (a serverSnapshot) sub(b serverSnapshot) serverSnapshot {
	d := serverSnapshot{
		series: map[string]float64{}, cpu: a.cpu - b.cpu,
		resHits: a.resHits - b.resHits, resMisses: a.resMisses - b.resMisses,
		resEvictions: a.resEvictions - b.resEvictions,
		gopHits:      a.gopHits - b.gopHits, gopMisses: a.gopMisses - b.gopMisses,
		gopEvictions: a.gopEvictions - b.gopEvictions, denied: a.denied - b.denied,
	}
	for k, v := range a.series {
		d.series[k] = v - b.series[k]
	}
	return d
}
