// Command perfbench is the repository benchmark. It runs one named
// workload from a seed and prints, as its last stdout line, one JSON
// object with the end-to-end metrics (or, with --trace 1, the per-layer
// metrics) and whether every served answer matched the offline reference.
//
// Run it through run.sh from the repository root, which builds prefetchd
// and this program from source first:
//
//	bash perfbench/run.sh --workload serve-fast --seed 1 --seconds 10 --trace 0
//
// See README.md for the workloads, the metrics and how to read a trace.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// setupReps is how many complete set-ups a run makes; setup_s is their
// median. Consecutive set-ups in one process vary by about ±18% on a
// shared host, so the median needs more than a few.
const setupReps = 7

// runConfig is one invocation.
type runConfig struct {
	workload  string
	seed      int64
	seconds   float64
	trace     bool
	prefetchd string // daemon binary
	work      string // scratch directory for the run's input files
	tracePath string // Chrome trace JSON of a traced run
}

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result accumulates a run's figures and its verdict.
type result struct {
	e2e       map[string]metric
	layers    map[string]metric
	attempted int
	failed    int
	problems  []string
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layers: map[string]metric{}}
}

func (r *result) add(name string, v float64, unit string) { r.e2e[name] = metric{v, unit} }

func (r *result) layer(name string, v float64, unit string) { r.layers[name] = metric{v, unit} }

// fail records a correctness problem.
func (r *result) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// identity records an exact conservation identity between a daemon
// counter and the client's own count.
func (r *result) identity(name string, daemon, client uint64) {
	if daemon != client {
		r.fail("conservation: %s = %d on the daemon, %d by the client", name, daemon, client)
	}
}

// clientConns is the number of TCP connections the generator opens: at
// most nproc, and two at most so results stay comparable across hosts.
func clientConns() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

func main() {
	var cfg runConfig
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "serve-fast or serve-model")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measurement time in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	flag.StringVar(&cfg.prefetchd, "prefetchd", filepath.Join(".bench_build", "prefetchd"), "prefetchd binary")
	flag.StringVar(&cfg.work, "work", filepath.Join(".bench_build", "work"), "scratch directory for generated inputs")
	flag.Parse()
	cfg.trace = traceFlag == 1
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(cfg runConfig) error {
	if cfg.seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if err := selfCheck(); err != nil {
		return fmt.Errorf("analyser self-check: %w", err)
	}
	runtime.GOMAXPROCS(runtime.NumCPU())
	cfg.work = filepath.Join(cfg.work, fmt.Sprintf("%s-%d", cfg.workload, os.Getpid()))
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return err
	}
	defer func() { _ = os.RemoveAll(cfg.work) }()
	cfg.tracePath = filepath.Join(filepath.Dir(cfg.work), fmt.Sprintf("../traces/%s-seed%d.json", cfg.workload, cfg.seed))
	if cfg.trace {
		if err := os.MkdirAll(filepath.Dir(cfg.tracePath), 0o755); err != nil {
			return err
		}
	}

	var res *result
	var err error
	switch cfg.workload {
	case "serve-fast":
		res, err = runServe(cfg, false)
	case "serve-model":
		res, err = runServe(cfg, true)
	default:
		return fmt.Errorf("unknown --workload %q (serve-fast, serve-model)", cfg.workload)
	}
	if err != nil {
		return err
	}
	return res.print(cfg.trace)
}

// print writes the human report to stderr and the JSON line to stdout.
func (r *result) print(traced bool) error {
	ms := r.e2e
	if traced {
		ms = r.layers
	}
	names := make([]string, 0, len(ms))
	for n, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			r.fail("metric %s is %v", n, m.Value)
		}
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-36s %14.6g %s\n", n, ms[n].Value, ms[n].Unit)
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "INCORRECT:", p)
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(r.problems) == 0, r.attempted, r.failed, map[string]metric{}}
	for _, n := range names {
		m := ms[n]
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			continue // already reported as a problem; JSON cannot carry it
		}
		out.Metrics[n] = m
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Correct = false
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(strings.TrimSpace(string(b)))
	return nil
}
