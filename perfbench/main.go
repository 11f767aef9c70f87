// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the public entry points — the v2v package in process
// (tos-render, kabr-cut) or the v2vserve binary over loopback
// (serve-zipf) — checks every output, and prints the end-to-end metrics
// (--trace 0) or the per-layer metrics of a traced run (--trace 1). The
// last line of standard output is the JSON result. METRICS.md defines
// every metric.
//
// Usage (run.sh builds this program and v2vserve from the checkout and
// passes --workdir and --server-bin):
//
//	perfbench --workload kabr-cut --seed 1 --seconds 25 --trace 0 \
//	    --workdir .bench_build/runs --server-bin .bench_build/bin/v2vserve
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
)

// config is one benchmark invocation.
type config struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// Dir receives this run's sources, logs and trace; it is created
	// fresh and emptied of media when the run ends.
	Dir       string
	ServerBin string
	ServeRPS  float64
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

// run executes one invocation, writing the result to stdout, and returns
// the exit code.
func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		cfg      config
		trace    int
		role     = fs.String("role", "bench", "bench, or worker for the measuring child")
		planPath = fs.String("plan", "", "worker: plan file")
		outPath  = fs.String("out", "", "worker: result file")
		workDir  = fs.String("workdir", ".bench_build/runs", "directory under which each run makes its own directory")
	)
	fs.StringVar(&cfg.Workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.Seed, "seed", 1, "workload seed")
	fs.Float64Var(&cfg.Seconds, "seconds", 25, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&cfg.ServerBin, "server-bin", "", "v2vserve binary (serve-zipf)")
	fs.Float64Var(&cfg.ServeRPS, "serve-rps", 6, "serve-zipf open-loop arrival rate, requests per second")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *role == "worker" {
		if err := runWorker(ctx, *planPath, *outPath); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench worker:", err)
			return 1
		}
		return 0
	}
	cfg.Trace = trace == 1
	rep, err := runBench(ctx, cfg, *workDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := rep.write(stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads() {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runBench runs one workload in a fresh directory under workDir.
func runBench(ctx context.Context, cfg config, workDir string) (*report, error) {
	w, ok := workloads()[cfg.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", cfg.Workload, strings.Join(workloadNames(), ", "))
	}
	if cfg.Seconds <= 0 {
		return nil, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(workDir, fmt.Sprintf("%s-s%d-t%v-", cfg.Workload, cfg.Seed, cfg.Trace))
	if err != nil {
		return nil, err
	}
	cfg.Dir = dir
	defer removeMedia(dir)
	if w.Name == wlServe {
		return runServe(ctx, cfg, w)
	}
	return runClosed(ctx, cfg, w)
}

// removeMedia deletes a run's generated sources and outputs, keeping its
// logs and trace for inspection.
func removeMedia(dir string) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		if e.IsDir() || strings.HasSuffix(e.Name(), ".vmf") {
			os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}
