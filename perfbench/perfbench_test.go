package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// TestMain lets the test binary act as the measuring child: runClosed
// re-executes os.Executable with workerEnv set.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnv) == "1" {
		os.Exit(run(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

// sequence returns a closed-loop workload's request keys in run order for
// the first rounds, plus serve-zipf's arrivals, under seed.
func sequence(t *testing.T, dir string, seed int64) ([]string, []request) {
	t.Helper()
	var keys []string
	var firsts []request
	for _, name := range []string{wlToS, wlKABR} {
		w := workloads()[name]
		in, err := ingest(filepath.Join(dir, name), w.Source, seed)
		if err != nil {
			t.Fatal(err)
		}
		cat := catalogue(in, w, seed)
		ord := newOrderer(seed, 0, len(cat), w.Distinct)
		for r := 0; r < 3; r++ {
			for _, p := range ord.round() {
				keys = append(keys, cat[p[0]][p[1]].Key)
			}
		}
		for _, reqs := range cat {
			firsts = append(firsts, reqs[0])
		}
		if name == wlKABR {
			s := serveSchedule(in, workloads()[wlServe], seed, 6, 5)
			for _, a := range s.Arrivals {
				keys = append(keys, s.Requests[a.Req].Key, a.Due.String())
			}
		}
	}
	return keys, firsts
}

func TestSeedDeterminesSequenceAndOutputs(t *testing.T) {
	if testing.Short() {
		t.Skip("generates sources")
	}
	dir := t.TempDir()
	a, reqsA := sequence(t, filepath.Join(dir, "a"), 1)
	b, reqsB := sequence(t, filepath.Join(dir, "b"), 1)
	c, _ := sequence(t, filepath.Join(dir, "c"), 2)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
	// The same seed regenerates the same sources, so every request's
	// output digest repeats (the specs differ only in their paths).
	for i := range reqsA {
		x, err := synthesizeBytes(reqsA[i], false)
		if err != nil {
			t.Fatal(err)
		}
		y, err := synthesizeBytes(reqsB[i], false)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(x, y) {
			t.Errorf("%s: output differs between two generations of seed 1", reqsA[i].Key)
		}
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests check against.
type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value *float64 `json:"value"`
		Unit  string   `json:"unit"`
	} `json:"metrics"`
}

// TestSmoke runs a short version of every workload, untraced and traced,
// and checks that it passes its correctness checks and prints exactly the
// metrics BENCHMARK.json declares, each named [A-Za-z0-9_.-]+ with its
// unit.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := loadBenchmarkFile(t)
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "v2vserve")
	build := exec.Command("go", "build", "-o", serverBin, "v2v/cmd/v2vserve")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build v2vserve: %v\n%s", err, out)
	}
	for _, wl := range workloadNames() {
		for _, trace := range []string{"0", "1"} {
			t.Run(wl+"/trace="+trace, func(t *testing.T) {
				var out bytes.Buffer
				args := []string{"--workload", wl, "--seed", "3", "--seconds", "5", "--trace", trace,
					"--workdir", filepath.Join(dir, "runs"), "--server-bin", serverBin}
				if code := run(args, &out); code != 0 {
					t.Fatalf("exit %d:\n%s", code, out.String())
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatalf("last line is not the result: %v\n%s", err, out.String())
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out.String())
				}
				want := bf.EndToEnd
				if trace == "1" {
					want = bf.PerLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case !metricName.MatchString(m.Name) || got.Unit != m.Unit || got.Value == nil:
						t.Errorf("metric %s: unit %q value %v, want unit %q", m.Name, got.Unit, got.Value, m.Unit)
					}
				}
			})
		}
	}
}
