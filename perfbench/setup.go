package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"voyager/internal/distill"
	"voyager/internal/trace"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

// Serving set-up: the benchmark makes every input the daemon gets. It
// generates the trace, trains the model and distils its table in-process,
// writes all three as files, computes the offline reference answers, and
// starts a prefetchd child on them.
const (
	serveBench    = "cc" // GAP connected components: irregular, table-friendly
	serveAccesses = 4000
	serveHidden   = 32
	serveDegree   = 2
	servePasses   = 1

	// datasetSeed fixes the serving trace and model. The run's --seed
	// picks the traffic (stream offsets, arrival times, stream choice), so
	// quality figures of two commits compare the same model on the same
	// accesses.
	datasetSeed = 1
)

// serveConfig is the model configuration both the benchmark and the
// daemon derive from the same flags (prefetchd builds ScaledConfig and
// overrides these fields), so the weights file loads shape-for-shape.
func serveConfig(seed int64, n int) voyager.Config {
	cfg := voyager.ScaledConfig()
	cfg.Seed = seed
	cfg.Hidden = serveHidden
	cfg.Degree = serveDegree
	cfg.UseDeltas = true
	cfg.DropoutKeep = 1
	cfg.PassesPerEpoch = servePasses
	cfg.EpochAccesses = n
	cfg.Workers = 1
	return cfg
}

// serveSetup is one complete set-up: inputs, references and a ready daemon.
type serveSetup struct {
	tr  *trace.Trace
	p   *voyager.Predictor
	tab *distill.Table
	ref [][]voyager.Candidate // model reference per trace position
	d   *daemon

	times setupTimes
}

// setupTimes is the wall time of each set-up step, in seconds.
type setupTimes struct {
	trace, train, distill, reference, ready, total float64
}

// setupServe builds everything under dir and starts the daemon.
// daemonArgs are extra prefetchd flags.
func setupServe(dir, bin string, daemonArgs []string, pl placement) (*serveSetup, error) {
	s := &serveSetup{}
	seed := int64(datasetSeed)
	t0 := time.Now()
	tr, err := workloads.Generate(serveBench, workloads.Config{Seed: seed, Scale: 1, MaxAccesses: serveAccesses})
	if err != nil {
		return nil, err
	}
	s.tr = tr
	t1 := time.Now()
	s.times.trace = t1.Sub(t0).Seconds()

	cfg := serveConfig(seed, tr.Len())
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		return nil, err
	}
	s.p = p
	t2 := time.Now()
	s.times.train = t2.Sub(t1).Seconds()

	s.tab = distill.Compile(p, 0, p.NumAccesses(), distill.DefaultParams())
	t3 := time.Now()
	s.times.distill = t3.Sub(t2).Seconds()

	tracePath := filepath.Join(dir, "serve.vygr")
	weightsPath := filepath.Join(dir, "serve.weights")
	tablePath := filepath.Join(dir, "serve.vydt")
	if err := writeFile(tracePath, func(w *bufio.Writer) error { return trace.Write(w, tr) }); err != nil {
		return nil, err
	}
	if err := writeFile(weightsPath, func(w *bufio.Writer) error { return p.SaveWeights(w) }); err != nil {
		return nil, err
	}
	if err := s.tab.Save(tablePath); err != nil {
		return nil, err
	}
	pos := make([]int, p.NumAccesses())
	for i := range pos {
		pos[i] = i
	}
	s.ref = p.PredictAt(pos, serveDegree)
	t4 := time.Now()
	s.times.reference = t4.Sub(t3).Seconds()

	args := append([]string{
		"-trace", tracePath, "-weights", weightsPath, "-table", tablePath,
		"-seed", strconv.FormatInt(seed, 10), "-hidden", strconv.Itoa(serveHidden),
		"-degree", strconv.Itoa(serveDegree), "-idle-evict", "0",
	}, daemonArgs...)
	s.d, err = startDaemon(bin, args, pl)
	if err != nil {
		return nil, err
	}
	t5 := time.Now()
	s.times.ready = t5.Sub(t4).Seconds()
	s.times.total = t5.Sub(t0).Seconds()
	return s, nil
}

// writeFile writes path through a buffered writer and checks every step.
func writeFile(path string, fill func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := fill(w); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
