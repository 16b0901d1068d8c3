package main

import (
	"fmt"
	"math"
	"os"
	"time"

	"voyager/internal/eval"
	"voyager/internal/prefetch"
	"voyager/internal/sim"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
)

// The offline Figure-5 pipeline, timed stage by stage in every traced run
// on the workload's own trace, in-process with one worker and nothing of
// serve: filter the trace through L1/L2 to the LLC stream, train Voyager
// with the online protocol, score the unified accuracy/coverage and
// simulate IPC with and without Voyager. Training runs the same tensor
// kernels as serving, but at 128-row batches instead of 1-2 rows.
const (
	offlineEpochs = 4
	offlinePasses = 3  // training seeds; the figures are medians and means over them
	filterReps    = 21 // the LLC filter takes about a millisecond
)

// offlineConfig is the experiment-scale configuration of cmd/experiments
// at one worker.
func offlineConfig(seed int64, streamLen int) voyager.Config {
	cfg := voyager.ScaledConfig()
	cfg.Seed = seed
	cfg.EpochAccesses = streamLen / offlineEpochs
	cfg.DropoutKeep = 1
	cfg.Workers = 1
	return cfg
}

// pipelineRun is one pass of train, evaluate and simulate.
type pipelineRun struct {
	trainS, unifiedS, simS, totalS float64
	samples                        int
	acc, speedup                   float64
}

// offlineStages runs the pipeline on raw offlinePasses times, each with
// its own training seed derived from seed, and reports every stage. A
// last pass repeats the first pass's seed and must reproduce it bit for
// bit; every pass must score an accuracy in (0, 1] and a positive IPC
// speedup.
func offlineStages(out *result, tk *tracing.Track, raw *trace.Trace, seed int64) error {
	var llc *trace.Trace
	var idx []int
	var filt []float64
	for i := 0; i < filterReps; i++ {
		sp := tk.Begin("sim.FilterLLC")
		t0 := time.Now()
		llc, idx = sim.FilterLLC(raw, sim.ScaledConfig())
		filt = append(filt, time.Since(t0).Seconds())
		sp.End()
	}
	out.layer("sim.filter_s", median(filt), "s")

	passSeed := func(i int) int64 { return seed*1009 + int64(i) }
	var runs []pipelineRun
	for i := 0; i <= offlinePasses; i++ {
		r, err := pipeline(tk, passSeed(i%offlinePasses), raw, llc, idx)
		if err != nil {
			return err
		}
		out.attempted++
		if !(r.acc > 0 && r.acc <= 1) || !(r.speedup > 0) || math.IsNaN(r.speedup) {
			out.failed++
			out.fail("offline pass %d: accuracy %v, IPC speedup %v out of range", i, r.acc, r.speedup)
		}
		runs = append(runs, r)
	}
	if r0, again := runs[0], runs[offlinePasses]; again.acc != r0.acc || again.speedup != r0.speedup || again.samples != r0.samples {
		out.failed++
		out.fail("repeating offline pass 0 gave accuracy %v speedup %v samples %d, pass 0 gave %v %v %d",
			again.acc, again.speedup, again.samples, r0.acc, r0.speedup, r0.samples)
	}
	runs = runs[:offlinePasses]
	col := func(f func(pipelineRun) float64) float64 {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, f(r))
		}
		return median(xs)
	}
	var acc, speedup []float64
	for _, r := range runs {
		acc, speedup = append(acc, r.acc), append(speedup, r.speedup)
	}
	simS := col(func(r pipelineRun) float64 { return r.simS })
	out.layer("voyager.train_s", col(func(r pipelineRun) float64 { return r.trainS }), "s")
	out.layer("voyager.train_samples_per_s", col(func(r pipelineRun) float64 { return float64(r.samples) / r.trainS }), "1/s")
	out.layer("eval.unified_s", col(func(r pipelineRun) float64 { return r.unifiedS }), "s")
	out.layer("eval.unified_acc", mean(acc), "ratio")
	out.layer("sim.simulate_s", simS, "s")
	out.layer("sim.accesses_per_s", 2*float64(raw.Len())/simS, "1/s")
	out.layer("sim.ipc_speedup", mean(speedup), "ratio")
	out.layer("offline.pipeline_s", col(func(r pipelineRun) float64 { return r.totalS }), "s")
	rec := col(func(r pipelineRun) float64 { return (r.trainS + r.unifiedS + r.simS) / r.totalS })
	out.layer("recon.offline_stages", rec, "ratio")
	fmt.Fprintf(os.Stderr, "offline pipeline: %d passes, %d LLC accesses of %d, %d samples trained per pass, unified accuracy %.4f, IPC speedup %.4f\n",
		len(runs), llc.Len(), raw.Len(), runs[0].samples, acc, speedup)

	h, err := voyager.NewBenchHarness(llc, offlineConfig(seed, llc.Len()))
	if err != nil {
		return err
	}
	out.layer("voyager.train_step_ms", timeCalls(tk, "voyager.BenchHarness.TrainStep", 500*time.Millisecond, func() { h.TrainStep() })/1e6, "ms")
	out.layer("voyager.predict_step_ms", timeCalls(tk, "voyager.BenchHarness.PredictStep", 300*time.Millisecond, func() { h.PredictStep() })/1e6, "ms")
	return nil
}

// pipeline trains a fresh model on the LLC stream and scores it: the
// unified metric on the stream, and IPC on the raw trace with Voyager's
// degree-1 predictions mapped back to raw indices versus no prefetcher.
func pipeline(tk *tracing.Track, seed int64, raw, llc *trace.Trace, idx []int) (pipelineRun, error) {
	var r pipelineRun
	cfg := offlineConfig(seed, llc.Len())
	t0 := time.Now()
	stage := func(name string, d *float64, fn func()) {
		sp := tk.Begin(name)
		s := time.Now()
		fn()
		*d = time.Since(s).Seconds()
		sp.End()
	}
	var p *voyager.Predictor
	var err error
	stage("voyager.Train", &r.trainS, func() { p, err = voyager.Train(llc, cfg) })
	if err != nil {
		return r, err
	}
	preds := p.Predictions()
	top1 := make([][]uint64, len(preds))
	for i, ps := range preds {
		if len(ps) > 1 {
			ps = ps[:1]
		}
		top1[i] = ps
	}
	stage("eval.Unified", &r.unifiedS, func() { r.acc = eval.Unified(llc, top1, eval.DefaultWindow, cfg.EpochAccesses) })
	mapped := make([][]uint64, raw.Len())
	for j, ps := range top1 {
		mapped[idx[j]] = ps
	}
	simCfg := sim.ScaledConfig()
	var base, vy sim.Result
	stage("sim.Simulate", &r.simS, func() {
		base = sim.Simulate(raw, prefetch.Nil{}, simCfg)
		vy = sim.Simulate(raw, &prefetch.Precomputed{Label: "voyager", Predictions: mapped}, simCfg)
	})
	r.totalS = time.Since(t0).Seconds()
	r.samples = p.TrainedSamples()
	r.speedup = vy.IPC / base.IPC
	return r, nil
}
