package main

import (
	"fmt"
	"math/rand"
	"os"
	"runtime/debug"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve/quality"
	"voyager/internal/tracing"
)

// The two workloads. Both start a real prefetchd child and drive it from
// this process over loopback, one tier hard (the main tier) and the other
// at a fixed low rate alongside (the side stream), so every per-layer
// figure of the daemon is defined on both.
//
// serve-fast: thousands of streams on the distilled fast tier, each
// replaying the trace from its own seeded offset, so the daemon's session
// table and the table probes spread past the L2 working set; quality
// telemetry off. Wire, connection handling, session lookup and table
// probes do the work. One model-tier stream at a low rate keeps the
// batcher's figures defined while it stays all but idle.
//
// serve-model: tens of streams on the model tier, each replaying the
// trace from position 0 with staggered starts, with -quality and 1-in-N
// shadow sampling on, plus one low-rate fast-tier stream alongside. The
// admission queue, the batcher and inference do the work. Every
// connection handler serialises its requests, so with at most nproc
// connections the batch fill is capped by the connection count; the
// workload exposes that cap rather than tuning around it, and the side
// stream shows what inference costs fast-tier requests sharing the cores
// and connections.
const (
	fastStreams      = 4096
	fastNominalRate  = 16000.0 // serve-fast offered requests per second
	sideModelRate    = 20.0    // serve-fast model-tier side stream
	fastLimitUS      = 50000.0 // fast-tier p99 limit of the rate search
	modelStreams     = 32
	modelNominalRate = 600.0 // serve-model model-tier requests per second
	sideFastRate     = 500.0 // serve-model fast-tier side stream
	modelLimitMS     = 100.0 // model-tier p99 limit of the rate search
	shadowEvery      = 4
	searchSteps      = 8
	drainTimeout     = 10 * time.Second
)

// serveRun is the state of one serving run.
type serveRun struct {
	cfg   runConfig
	model bool // serve-model
	s     *serveSetup
	g     *generator
	o     *oracle
	rng   *rand.Rand
	out   *result

	setups []setupTimes
	pl     placement
}

func runServe(cfg runConfig, model bool) (*result, error) {
	r := &serveRun{cfg: cfg, model: model, rng: rand.New(rand.NewSource(cfg.seed)), out: newResult(), pl: newPlacement()}
	if err := r.setup(); err != nil {
		return nil, err
	}
	// Measure from a heap that holds only the last set-up. From here the
	// generator allocates only records; keep pauses rare. The cap binds
	// only in the traced run's rate search, which keeps well over a
	// million records for the reply check.
	debug.FreeOSMemory()
	debug.SetGCPercent(400)
	debug.SetMemoryLimit(1 << 30)
	if r.pl.on {
		// Set-up (training) uses every CPU; the load from here on does not.
		if err := pinProcess(r.pl.generator); err != nil {
			return nil, err
		}
	}
	defer r.stopDaemon()
	if err := r.measure(); err != nil {
		return nil, err
	}
	return r.out, nil
}

// setup runs the complete set-up setupReps times and keeps the last one;
// setup_s is the median.
func (r *serveRun) setup() error {
	var args []string
	if r.model {
		args = []string{"-quality", "-shadow-every", fmt.Sprint(shadowEvery)}
	}
	var totals []float64
	for i := 0; i < setupReps; i++ {
		if r.s != nil {
			r.stopDaemon()
		}
		s, err := setupServe(r.cfg.work, r.cfg.prefetchd, args, r.pl)
		if err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		r.s = s
		r.setups = append(r.setups, s.times) // timings only: a set-up's inputs are large
		totals = append(totals, s.times.total)
	}
	r.out.add("setup_s", median(totals), "s")
	med := func(f func(setupTimes) float64) float64 {
		var xs []float64
		for _, s := range r.setups {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	r.out.layer("workloads.generate_s", med(func(t setupTimes) float64 { return t.trace }), "s")
	r.out.layer("setup.train_s", med(func(t setupTimes) float64 { return t.train }), "s")
	r.out.layer("setup.distill_s", med(func(t setupTimes) float64 { return t.distill }), "s")
	r.out.layer("setup.reference_s", med(func(t setupTimes) float64 { return t.reference }), "s")
	r.out.layer("setup.daemon_ready_s", med(func(t setupTimes) float64 { return t.ready }), "s")
	return nil
}

// stopDaemon stops the current daemon; a hang is a failed operation.
func (r *serveRun) stopDaemon() {
	if r.s == nil || r.s.d == nil {
		return
	}
	if r.g != nil {
		r.g.close()
		r.g = nil
	}
	r.out.attempted++
	if r.s.d.stop() {
		r.out.failed++
		r.out.fail("prefetchd did not exit within %v of SIGTERM (killed)", stopTimeout)
	}
	r.s.d = nil
}

// mainKind is the tier the workload drives hard; sideKind is the other
// one, which the side stream uses.
func (r *serveRun) mainKind() kind {
	if r.model {
		return kindModel
	}
	return kindFast
}

func (r *serveRun) sideKind() kind {
	if r.model {
		return kindFast
	}
	return kindModel
}

// streams lays out the workload's client streams: the main tier's, then
// one side stream on the other tier.
func (r *serveRun) streams() (all []stream, main, side []int) {
	n := r.s.tr.Len()
	if !r.model {
		for i := 0; i < fastStreams; i++ {
			all = append(all, stream{kind: kindFast, offset: r.rng.Intn(n)})
			main = append(main, i)
		}
		all = append(all, stream{kind: kindModel})
		return all, main, []int{fastStreams}
	}
	for i := 0; i < modelStreams; i++ {
		all = append(all, stream{kind: kindModel})
		main = append(main, i)
	}
	all = append(all, stream{kind: kindFast, offset: r.rng.Intn(n)})
	return all, main, []int{modelStreams}
}

// sources are the arrival processes at main-tier rate rate.
func (r *serveRun) sources(rate float64, main, side []int) []source {
	sideRate := sideModelRate
	if r.model {
		sideRate = sideFastRate
	}
	return []source{{rate: rate, streams: main}, {rate: sideRate, streams: side}}
}

// warm opens every session once, and on serve-model staggers the model
// streams' starting positions, outside any measured phase.
func (r *serveRun) warm(main, side []int) {
	var seq []int
	for _, s := range main {
		reps := 1
		if r.model {
			reps = 1 + s%8
		}
		for k := 0; k < reps; k++ {
			seq = append(seq, s)
		}
	}
	seq = append(seq, side...)
	r.g.sweep(seq)
}

func (r *serveRun) measure() error {
	streams, main, side := r.streams()
	var tracer *tracing.Tracer
	if r.cfg.trace {
		tracer = tracing.New(tracing.Options{Path: r.cfg.tracePath})
	}
	g, err := newGenerator(r.s.d.addr, clientConns(), r.s.tr, streams, tracer, 0)
	if err != nil {
		return err
	}
	r.g = g
	r.o = newOracle(r.s)
	r.warm(main, side)
	if err := r.g.drain(drainTimeout); err != nil {
		return fmt.Errorf("warm-up: %w", err)
	}

	rate := fastNominalRate
	if r.model {
		rate = modelNominalRate
	}
	secs := time.Duration(r.cfg.seconds * float64(time.Second))
	if r.cfg.trace {
		err = r.traced(rate, secs, main, side)
	} else {
		err = r.untraced(rate, secs, main, side)
	}
	if err != nil {
		return err
	}
	if err := r.finish(); err != nil {
		return err
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			return fmt.Errorf("tracing: %w", err)
		}
		fmt.Fprintf(os.Stderr, "trace: %s\n", r.cfg.tracePath)
	}
	return nil
}

// untraced measures the end-to-end figures in one nominal-rate phase.
func (r *serveRun) untraced(rate float64, secs time.Duration, main, side []int) error {
	nom := r.g.run(r.rng, r.sources(rate, main, side), secs, 0, drainTimeout, nil, false)
	r.phase("nominal", nom)
	r.o.scoreEnd = len(r.g.recs)
	if nom.err != nil {
		return fmt.Errorf("nominal phase: %w", nom.err)
	}
	// The main tier's p50 is gated. The p99s move by more than any bound
	// could hold on a shared host (a stall of a few milliseconds sets the
	// p99 of every window it hits), and the side stream shares connections
	// with the main tier, so its round trip mixes its own replies with
	// waits behind main-tier requests. Both are printed here and reported
	// as layer figures by the traced run.
	k := r.mainKind()
	ml := nom.lats(k)
	m := summarize(ml, nom.lo, nom.hi, windowsFor(len(ml)))
	r.out.add("rtt_p50_us", m.P50/1e3, "us")
	r.note("main "+k.String()+" rtt", m)
	sl := nom.lats(r.sideKind())
	r.note("side "+r.sideKind().String()+" rtt", summarize(sl, nom.lo, nom.hi, windowsFor(len(sl))))
	return nil
}

// searchMax finds the highest main-tier rate whose p99 stays within the
// tier's limit with no failure and no growing backlog, in searchSteps
// probes that share the time budget.
func (r *serveRun) searchMax(start float64, budget time.Duration, main, side []int) (float64, error) {
	k := r.mainKind()
	limit := fastLimitUS * 1e3
	if r.model {
		limit = modelLimitMS * 1e6
	}
	stepDur := budget / searchSteps
	var runErr error
	probe := func(x float64) step {
		backlog := int64(x*limit/1e9*4) + 64
		ph := r.g.run(r.rng, r.sources(x, main, side), stepDur, backlog, drainTimeout, nil, false)
		r.phase(fmt.Sprintf("probe %.0f/s", x), ph)
		if ph.err != nil && runErr == nil {
			runErr = ph.err
		}
		pl := ph.lats(k)
		sm := summarize(pl, ph.lo, ph.hi, windowsFor(len(pl)))
		pass := ph.err == nil && !ph.backlogged && ph.failures() == 0 && sm.P99 <= limit
		fmt.Fprintf(os.Stderr, "  probe %8.0f/s: p50 %10.1fus p99 %10.1fus backlogged=%v pass=%v\n", x, sm.P50/1e3, sm.P99/1e3, ph.backlogged, pass)
		return step{P99: sm.P99, Pass: pass}
	}
	maxRPS, steps := searchMaxRate(start, limit, searchSteps, probe)
	if runErr != nil {
		return 0, fmt.Errorf("rate search: %w", runErr)
	}
	fmt.Fprintf(os.Stderr, "max_rps (%s tier): %.0f req/s after %d probes\n", k, maxRPS, len(steps))
	return maxRPS, nil
}

// windowsFor splits n samples into windows of windowSamples, so each
// window's p99 has ten samples beyond it. A host stall sets the p99 of the
// windows it hits; with short windows it hits few of them, and the median
// window shows the tail of undisturbed traffic.
func windowsFor(n int) int {
	const windowSamples = 1000
	if n < windowSamples {
		return 1
	}
	return n / windowSamples
}

// finish closes every stream, verifies every reply, checks the
// conservation identities against the daemon's counters, and records the
// quality and memory figures.
func (r *serveRun) finish() error {
	if err := r.g.closeStreams(drainTimeout); err != nil {
		return fmt.Errorf("closing streams: %w", err)
	}
	end, err := r.s.d.scrape()
	if err != nil {
		return err
	}
	if err := r.o.check(r.g.recs); err != nil {
		return err
	}
	r.o.closeSessions()
	out := r.out
	out.attempted += len(r.g.recs)
	out.failed += r.o.failed + r.o.mismatched
	if r.o.mismatched > 0 {
		out.fail("%d replies differ from the offline reference; first: %s", r.o.mismatched, r.o.firstBad)
	}
	if r.o.failed > 0 {
		out.fail("%d requests unanswered or answered with an error", r.o.failed)
	}

	var sentFast, sentModel uint64
	for _, rec := range r.g.recs {
		switch rec.kind {
		case kindFast:
			sentFast++
		case kindModel:
			sentModel++
		}
	}
	life := delta{a: &metrics.Snapshot{}, b: end}
	out.identity("serve_requests_total", life.counter("serve_requests_total"), sentFast+sentModel)
	out.identity("serve_requests_fast_total", life.counter("serve_requests_fast_total"), sentFast)
	out.identity("serve_requests_model_total", life.counter("serve_requests_model_total"), sentModel)
	out.identity("serve_errors_total", life.counter("serve_errors_total"), 0)
	tiers := r.o.tierCounts()
	var tierSum uint64
	for i := distill.Tier(0); i < distill.NumTiers; i++ {
		name := "serve_fast_tier_" + i.String() + "_total"
		got := life.counter(name)
		tierSum += got
		out.identity(name, got, uint64(tiers[i]))
	}
	out.identity("sum of serve_fast_tier_*_total", tierSum, life.counter("serve_requests_fast_total"))

	rep, nom := r.o.qt.Report(), r.o.qtNom.Report()
	fmt.Fprintf(os.Stderr, "client-side %s\nof which warm-up and nominal phase: %s\n", rep, nom)
	if r.model {
		checkQuality(out, life, rep)
		var qs qualityShadow
		if err := r.s.d.getJSON("/quality", &qs); err != nil {
			return err
		}
		out.identity("/quality shadow samples", qs.Shadow.Samples, life.counter("quality_shadow_samples"))
		fmt.Fprintf(os.Stderr, "shadow sampling: %d jobs, %d dropped, %d agreed\n", qs.Shadow.Samples, qs.Shadow.Dropped, qs.Shadow.Agree)
	}
	if !r.cfg.trace {
		t := nom.Fast
		if r.model {
			t = nom.Model
		}
		out.add("useful_rate", usefulRate(t), "ratio")
	}
	rss, err := r.s.d.peakRSSMB()
	if err != nil {
		return err
	}
	out.add("rss_mb", rss, "MiB")
	out.layer("serve.errors", float64(life.counter("serve_errors_total")), "count")
	out.layer("gen.sent", float64(len(r.g.recs)), "count")
	out.layer("gen.failed", float64(r.o.failed), "count")
	out.layer("gen.mismatched", float64(r.o.mismatched), "count")
	if r.o.fastN > 0 {
		out.layer("distill.access_ns", float64(r.o.replayDur.Nanoseconds())/float64(r.o.fastN), "ns")
	}
	return nil
}

// usefulRate is the share of all predictions that were useful within
// UsefulK. The scoreboard's own accuracy leaves out overflowed and
// unresolved predictions, and at degree 2 the default pending ring
// overflows before an unmatched prediction can age into a miss.
func usefulRate(t quality.TierReport) float64 {
	return float64(t.Useful) / float64(t.Predictions)
}

// checkQuality requires the client's scoreboard to equal the daemon's
// quality_* counters exactly: both scored the same replies in the same
// per-stream order and settled the same sessions.
func checkQuality(out *result, d delta, rep quality.Report) {
	for _, t := range []struct {
		name string
		tr   quality.TierReport
	}{{"model", rep.Model}, {"fast", rep.Fast}} {
		out.identity("quality_predictions_"+t.name, d.counter("quality_predictions_"+t.name), t.tr.Predictions)
		out.identity("quality_useful_"+t.name, d.counter("quality_useful_"+t.name), t.tr.Useful)
		out.identity("quality_late_"+t.name, d.counter("quality_late_"+t.name), t.tr.Late)
		out.identity("quality_miss_"+t.name, d.counter("quality_miss_"+t.name), t.tr.Miss)
	}
	out.identity("quality_unresolved_total", d.counter("quality_unresolved_total"), rep.Unresolved)
	out.identity("quality_overflow_total", d.counter("quality_overflow_total"), rep.Overflow)
}

// phase prints a phase's sent/succeeded/failed line.
func (r *serveRun) phase(name string, p *phaseResult) {
	f := p.failures()
	fmt.Fprintf(os.Stderr, "phase %-16s sent %7d succeeded %7d failed %d backlogged=%v\n",
		name, len(p.recs), len(p.recs)-f, f, p.backlogged)
}

// note prints a timing digest with its sample counts.
func (r *serveRun) note(name string, s summary) {
	fmt.Fprintf(os.Stderr, "%s: n=%d (min %d per window) p50 %.1fus p99 %.1fus mean %.1fus late p50 %.1fus p99 %.1fus; from the actual send p50 %.1fus; window p50s %.0f p99s %.0f (ns)\n",
		name, s.N, s.MinWin, s.P50/1e3, s.P99/1e3, s.MeanRTT/1e3, s.LateP50/1e3, s.LateP99/1e3, s.SentP50/1e3, s.WinP50, s.WinP99)
}
