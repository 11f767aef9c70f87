package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"v2v/internal/check"
	"v2v/internal/exec"
	"v2v/internal/media"
	"v2v/internal/obs"
	"v2v/internal/opt"
	"v2v/internal/plan"
	"v2v/internal/rational"
	"v2v/internal/rewrite"
	"v2v/internal/vql"
)

// layerSample is one traced query's per-layer observations.
type layerSample struct {
	parse, check, rewrite, plan, optimize, exec time.Duration
	evaluated, folded                           int
	segments                                    int
	costUnopt, costOpt                          float64
	stages                                      [4]obs.StageStats
	outPackets, copied                          int64
	sink                                        time.Duration
}

// layerTracer replays queries layer by layer — vql.Parse, check.Check,
// rewrite.Rewrite, plan.Build, opt.Optimize, exec.ExecuteTo — with a span
// around each call (all spans of a query share its request ID) and an
// obs.Recorder inside exec. Spans stay in memory until writeTrace.
type layerTracer struct {
	tr      *obs.Trace
	samples []layerSample
	n       int
	// pool counters are the frame pool's process-wide instruments.
	poolGets, poolRecycled *obs.Counter
	gets0, recycled0       int64
}

func newLayerTracer(workload string) *layerTracer {
	lt := &layerTracer{
		tr:           obs.NewTrace("perfbench " + workload),
		poolGets:     obs.Default().Counter("v2v_frame_pool_gets_total", ""),
		poolRecycled: obs.Default().Counter("v2v_frame_pool_recycled_total", ""),
	}
	lt.gets0, lt.recycled0 = lt.poolGets.Value(), lt.poolRecycled.Value()
	return lt
}

// timedWriter accumulates the wall time spent inside Write: the sink's
// hand-off of bytes to the client.
type timedWriter struct {
	w     io.Writer
	spent time.Duration
}

func (t *timedWriter) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := t.w.Write(p)
	t.spent += time.Since(start)
	return n, err
}

// run measures one query through the individual layers.
func (lt *layerTracer) run(ctx context.Context, req request) queryRecord {
	lt.n++
	id := fmt.Sprintf("q%06d", lt.n)
	rec := queryRecord{Kind: req.Kind, Key: req.Key, Render: req.Render}
	root := lt.tr.StartSpan("query " + req.Kind)
	root.SetAttr("req", id)
	root.SetAttr("key", req.Key)
	var s layerSample
	span := func(name string, d *time.Duration, f func() error) error {
		sp := root.Child(name)
		sp.SetAttr("req", id)
		start := time.Now()
		err := f()
		*d = time.Since(start)
		if err != nil {
			sp.SetAttr("error", err.Error())
		}
		sp.End()
		return err
	}

	pw, wait := startClient(time.Now())
	sink := &timedWriter{w: pw}
	err := func() error {
		var spec *vql.Spec
		var checked *check.Checked
		var p *plan.Plan
		if err := span("vql.parse", &s.parse, func() (err error) {
			spec, err = vql.Parse(req.Spec)
			return err
		}); err != nil {
			return err
		}
		if err := span("check.check", &s.check, func() (err error) {
			checked, err = check.Check(spec, check.Options{})
			return err
		}); err != nil {
			return err
		}
		if err := span("rewrite.rewrite", &s.rewrite, func() error {
			rewritten, st, err := rewrite.Rewrite(checked)
			if err != nil {
				return err
			}
			s.evaluated = st.TimesEvaluated
			for _, n := range st.Applied {
				s.folded += n
			}
			if rewritten != checked.Spec {
				c2 := *checked
				c2.Spec = rewritten
				checked = &c2
			}
			return nil
		}); err != nil {
			return err
		}
		if err := span("plan.build", &s.plan, func() (err error) {
			p, err = plan.Build(checked)
			return err
		}); err != nil {
			return err
		}
		s.costUnopt = p.EstimatedCost().Units()
		if err := span("opt.optimize", &s.optimize, func() error {
			passes := opt.Default()
			passes.Parallelism = parallelism
			st, err := opt.Optimize(p, passes)
			rec.SmartCuts = st.SmartCuts
			return err
		}); err != nil {
			return err
		}
		s.costOpt = p.EstimatedCost().Units()
		s.segments = len(p.Segments)
		rcd := obs.NewRecorder()
		return span("exec.execute", &s.exec, func() error {
			info := p.Checked.Output
			info.Start = rational.Zero
			sw, err := media.NewStreamWriter(sink, info)
			if err != nil {
				return err
			}
			m, err := exec.ExecuteTo(ctx, p, sw, exec.Options{
				Parallelism: parallelism, Recorder: rcd, Streaming: true,
			})
			if err != nil {
				return err
			}
			for st := obs.StageDecode; st <= obs.StageCopy; st++ {
				s.stages[st] = rcd.Stage(st)
			}
			s.outPackets = m.Output.FramesEncoded + m.Output.PacketsCopied
			s.copied = m.Output.PacketsCopied
			rec.Copied = m.Output.PacketsCopied
			s.exec = m.Wall
			return nil
		})
	}()
	c := wait(err)
	root.End()
	s.sink = sink.spent
	if err == nil && c.err == nil {
		lt.samples = append(lt.samples, s)
	}
	return finish(rec, req, c, err)
}

// metrics reduces the traced queries to the per-layer metrics; overhead
// is the traced run's throughput loss against the untraced one.
func (lt *layerTracer) metrics(recs []queryRecord, rt runtimeSample, overhead float64) []metric {
	var sum layerSample
	var stageWall time.Duration
	for _, s := range lt.samples {
		sum.parse += s.parse
		sum.check += s.check
		sum.rewrite += s.rewrite
		sum.plan += s.plan
		sum.optimize += s.optimize
		sum.exec += s.exec
		sum.sink += s.sink
		sum.evaluated += s.evaluated
		sum.folded += s.folded
		sum.segments += s.segments
		sum.costUnopt += s.costUnopt
		sum.costOpt += s.costOpt
		sum.outPackets += s.outPackets
		sum.copied += s.copied
		for i := range s.stages {
			sum.stages[i].Frames += s.stages[i].Frames
			sum.stages[i].Wall += s.stages[i].Wall
			stageWall += s.stages[i].Wall
		}
	}
	n := float64(len(lt.samples))
	var latency float64
	for _, r := range recs {
		if r.Err == "" {
			latency += r.LatencyS
		}
	}
	ms := func(d time.Duration) float64 { return ratio(d.Seconds()*1e3, n) }
	usPer := func(st obs.Stage) float64 {
		return ratio(sum.stages[st].Wall.Seconds()*1e6, float64(sum.stages[st].Frames))
	}
	perOut := func(st obs.Stage) float64 {
		return ratio(float64(sum.stages[st].Frames), float64(sum.outPackets))
	}
	planning := sum.parse + sum.check + sum.rewrite + sum.plan + sum.optimize
	out := []metric{
		{"raster.filter_us_per_frame", usPer(obs.StageFilter), "us"},
		{"raster.filter_share", ratio(sum.stages[obs.StageFilter].Wall.Seconds(), stageWall.Seconds()), "ratio"},
		{"codec.decode_us_per_frame", usPer(obs.StageDecode), "us"},
		{"codec.decodes_per_output_frame", perOut(obs.StageDecode), "ratio"},
		{"codec.encode_us_per_frame", usPer(obs.StageEncode), "us"},
		{"codec.encodes_per_output_frame", perOut(obs.StageEncode), "ratio"},
		{"media.copy_us_per_packet", usPer(obs.StageCopy), "us"},
		{"media.sink_ms", ms(sum.sink), "ms"},
		{"vql.parse_ms", ms(sum.parse), "ms"},
		{"check.check_ms", ms(sum.check), "ms"},
		{"rewrite.rewrite_ms", ms(sum.rewrite), "ms"},
		{"rewrite.arms_pruned_share", ratio(float64(sum.folded), float64(sum.evaluated)), "ratio"},
		{"plan.build_ms", ms(sum.plan), "ms"},
		{"plan.segments_per_query", ratio(float64(sum.segments), n), "count"},
		{"opt.optimize_ms", ms(sum.optimize), "ms"},
		{"core.plan_share", ratio(planning.Seconds(), latency), "ratio"},
		{"opt.est_cost_ratio", ratio(sum.costUnopt, sum.costOpt), "ratio"},
		{"opt.copy_share", ratio(float64(sum.copied), float64(sum.outPackets)), "ratio"},
		{"exec.busy_share", ratio(stageWall.Seconds(), sum.exec.Seconds()*parallelism), "ratio"},
		{"exec.wall_ms", ms(sum.exec), "ms"},
		{"frame.pool_recycle_ratio", ratio(float64(lt.poolRecycled.Value()-lt.recycled0), float64(lt.poolGets.Value()-lt.gets0)), "ratio"},
		{"go.allocs_per_output_frame", ratio(rt.allocs, float64(sum.outPackets)), "count"},
		{"go.gc_cpu_share", ratio(rt.gcCPU, rt.totalCPU), "ratio"},
	}
	// Layers a closed-loop run does not exercise (no caches, server or
	// arrival generator) read 0; serve-zipf fills them from the server.
	return append(out,
		metric{"media.rescache_hit_ratio", 0, "ratio"},
		metric{"media.rescache_evictions", 0, "count"},
		metric{"media.gopcache_hit_ratio", 0, "ratio"},
		metric{"media.gopcache_evictions", 0, "count"},
		metric{"media.arbiter_denied", 0, "count"},
		metric{"admit.wait_p90_ms", 0, "ms"},
		metric{"admit.shed_share", 0, "ratio"},
		metric{"serve.cpu_ms_per_request", 0, "ms"},
		metric{"serve.flush_gap_ms", 0, "ms"},
		metric{"gen.lag_p90_ms", 0, "ms"},
		metric{"gen.hot_share", 0, "ratio"},
		metric{"obs.trace_overhead_share", overhead, "ratio"},
	)
}

// writeTrace writes tr's spans as Chrome trace JSON.
func writeTrace(tr *obs.Trace, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// replayLayers runs each distinct request once through the traced layer
// path in process (caches off, as in the closed loop), checks the output
// against the v2v.Prepare path in the same configuration, and returns the
// per-layer metrics of those runs. serve-zipf uses it for the layers the
// server does not expose.
func replayLayers(ctx context.Context, reqs []request, cfg config) ([]metric, error) {
	lt := newLayerTracer(cfg.Workload)
	rt0 := readRuntime()
	var recs []queryRecord
	seen := map[string]bool{}
	for _, r := range reqs {
		if seen[r.Key] {
			continue
		}
		seen[r.Key] = true
		want, err := synthesizeBytes(r, false)
		if err != nil {
			return nil, err
		}
		rec := lt.run(ctx, r)
		if sum := sha256.Sum256(want); rec.Err != "" || rec.Digest != hex.EncodeToString(sum[:]) {
			return nil, fmt.Errorf("layer replay of %s differs from the v2v.Prepare path (%s)", r.Key, rec.Err)
		}
		recs = append(recs, rec)
	}
	ms := lt.metrics(recs, readRuntime().sub(rt0), 0)
	return ms, writeTrace(lt.tr, filepath.Join(cfg.Dir, "trace.json"))
}
