// Command perfbench is the live-cluster benchmark of the RBFT node. It
// starts a real f=1 cluster (four nodes in this process), drives it with two
// clients under one of the workloads in workload.go, checks that every
// replica produced the correct outputs, and prints the metrics named in
// README.md. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 a
// separate traced run yields the per-layer ones.
//
// Usage (from the repository root; run.py builds and runs this package):
//
//	python3 perfbench/run.py --workload counter-closed --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one benchmark invocation.
type config struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	// setupRounds is how many times the end-to-end run boots a cluster to
	// time set-up; the last cluster carries the load.
	setupRounds int
	// workDir holds the run's data directories and trace output.
	workDir string
}

// workDir holds the runs' data directories and span dumps, inside the
// checkout's build directory.
var workDir = filepath.Join(".bench_build", "perfbench")

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 30, "measured window length in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	cfg := config{workload: w, seed: *seed, seconds: *seconds, trace: *trace == 1, setupRounds: 5, workDir: workDir}
	res, err := run(cfg, os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one benchmark invocation, printing a human-readable report
// (every metric by name and unit, check failures) to out.
func run(cfg config, out io.Writer) (result, error) {
	base, err := os.MkdirTemp(mkdirAll(cfg.workDir), cfg.workload.name+"-")
	if err != nil {
		return result{}, fmt.Errorf("data directory: %w", err)
	}
	defer os.RemoveAll(base)

	var rep report
	if cfg.trace {
		rep, err = runLayers(cfg, base)
	} else {
		rep, err = runEndToEnd(cfg, base)
	}
	if err != nil {
		return result{}, err
	}
	fmt.Fprintf(out, "workload %s seed %d window %.0fs trace %v\n", cfg.workload.name, cfg.seed, cfg.seconds, cfg.trace)
	names := make([]string, 0, len(rep.extra)+len(rep.metrics))
	for n := range rep.metrics {
		names = append(names, n)
	}
	for n := range rep.extra {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m, ok := rep.metrics[n]
		if !ok {
			m = rep.extra[n]
		}
		fmt.Fprintf(out, "  %-28s %14.4f %s\n", n, m.Value, m.Unit)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, " ", n)
	}
	for _, e := range rep.checkErrs {
		fmt.Fprintln(out, "  CHECK FAILED:", e)
	}
	return result{
		Correct:   len(rep.checkErrs) == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   rep.metrics,
	}, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

func mkdirAll(dir string) string {
	_ = os.MkdirAll(dir, 0o755) // MkdirTemp reports the failure
	return dir
}

// report is what one mode of the benchmark produced.
type report struct {
	metrics   map[string]metric // the metrics of the result line
	extra     map[string]metric // printed in the human-readable report only
	notes     []string          // further report lines
	attempted int
	failed    int
	checkErrs []error
}
