package main

import (
	"fmt"
	"math/rand"
	"os"
	"sort"
	"time"

	"voyager/internal/metrics"
	"voyager/internal/serve"
	"voyager/internal/serve/quality"
	"voyager/internal/tensor"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/voyager"
)

// Per-layer figures come from outside the program: the traced run times
// calls into each layer's public functions on the workload's own inputs,
// and diffs the daemon's /metrics snapshot around each phase.

// reconTolerance is how far the serving ledger (lateness + connection
// wait + ping round trip + daemon service time) may stray from the mean
// round trip it explains. The daemon's service means come from log2
// histograms whose representatives are within -29%..+41% of each sample.
const reconTolerance = 0.25

// traced runs untraced and traced nominal phases interleaved (A B A B) so
// the tracing overhead is a paired ratio from one process, then a ping
// phase for the wire baseline, the maximum-rate search, the layer timings
// and the offline pipeline.
func (r *serveRun) traced(rate float64, secs time.Duration, main, side []int) error {
	var a, b []*phaseResult
	var da, db []delta
	cpu0, err := r.s.d.cpuSeconds()
	if err != nil {
		return err
	}
	for i := 0; i < 4; i++ {
		on := i%2 == 1
		before, err := r.s.d.scrape()
		if err != nil {
			return err
		}
		ph := r.g.run(r.rng, r.sources(rate, main, side), secs*15/100, 0, drainTimeout, nil, on)
		after, err := r.s.d.scrape()
		if err != nil {
			return err
		}
		r.phase(fmt.Sprintf("nominal traced=%v", on), ph)
		if ph.err != nil {
			return fmt.Errorf("nominal phase: %w", ph.err)
		}
		if on {
			b, db = append(b, ph), append(db, delta{before, after})
		} else {
			a, da = append(a, ph), append(da, delta{before, after})
		}
	}
	cpu1, err := r.s.d.cpuSeconds()
	if err != nil {
		return err
	}
	pingPh := r.g.run(r.rng, r.sources(rate, main, side), secs/10, 0, drainTimeout,
		func(*stream) kind { return kindPing }, true)
	r.phase("ping", pingPh)
	if pingPh.err != nil {
		return fmt.Errorf("ping phase: %w", pingPh.err)
	}
	// The search runs after the daemon-side deltas' phases, so its
	// overload never reaches them.
	maxRPS, err := r.searchMax(rate*2, secs*3/10, main, side)
	if err != nil {
		return err
	}
	r.out.layer("max_rps", maxRPS, "1/s")

	out := r.out
	mk, sk := r.mainKind(), r.sideKind()
	// Tracing overhead: traced ÷ untraced p50 of the main tier, with both
	// bases.
	pa, pb := p50Of(a, mk), p50Of(b, mk)
	out.layer("tracing.overhead.rtt_p50", pb/pa, "ratio")
	out.layer("tracing.base.rtt_p50_untraced_us", pa/1e3, "us")
	out.layer("tracing.base.rtt_p50_traced_us", pb/1e3, "us")
	// Tails of the untraced phases (see untraced for why they are not gated).
	tail := func(k kind) summary {
		var ls []latency
		var span int64 // the phases laid end to end, so windows hold no gaps
		for _, ph := range a {
			shift := ph.lo - span
			for _, l := range ph.lats(k) {
				ls = append(ls, latency{l.intended - shift, l.sent - shift, l.done - shift})
			}
			span += ph.hi - ph.lo
		}
		return summarize(ls, 0, span, windowsFor(len(ls)))
	}
	out.layer("rtt_p99_us", tail(mk).P99/1e3, "us")
	st := tail(sk)
	out.layer("side.rtt_p50_us", st.P50/1e3, "us")
	out.layer("side.rtt_p99_us", st.P99/1e3, "us")

	// The generator's own figures over the traced phases.
	var late []float64
	for _, ph := range b {
		for _, rec := range ph.recs {
			late = append(late, float64(rec.sent-rec.intended))
		}
	}
	out.layer("gen.late_p99_us", quantile(sortedCopy(late), 0.99)/1e3, "us")

	// Daemon-side figures, summed over the traced phases.
	sum := func(f func(delta) uint64) (n uint64) {
		for _, d := range db {
			n += f(d)
		}
		return n
	}
	histMean := func(name string) float64 {
		var n uint64
		var s float64
		for _, d := range db {
			c, x := d.hist(name)
			n, s = n+c, s+x
		}
		return s / float64(n)
	}
	var reqs uint64
	for _, d := range append(da, db...) {
		reqs += d.counter("serve_requests_total")
	}
	out.layer("serve.daemon_cpu_us_per_req", (cpu1-cpu0)*1e6/float64(reqs), "us")
	out.layer("serve.requests", float64(sum(func(d delta) uint64 { return d.counter("serve_requests_total") })), "count")
	fastReqs := sum(func(d delta) uint64 { return d.counter("serve_requests_fast_total") })
	for _, t := range []string{"context", "markov", "miss"} {
		n := sum(func(d delta) uint64 { return d.counter("serve_fast_tier_" + t + "_total") })
		out.layer("serve.fast_tier_"+t+"_share", float64(n)/float64(fastReqs), "ratio")
	}
	fastSvc := histMean("serve_fast_request_seconds")
	out.layer("serve.fast_service_mean_ns", fastSvc*1e9, "ns")
	out.layer("serve.sessions_active", db[len(db)-1].gauge("serve_sessions_active"), "count")

	batches := sum(func(d delta) uint64 { return d.counter("serve_batches_total") })
	rows := sum(func(d delta) uint64 { return d.counter("serve_batch_rows_total") })
	out.layer("serve.batches", float64(batches), "count")
	out.layer("serve.batch_fill_mean", float64(rows)/float64(batches), "rows")
	out.layer("serve.queue_wait_mean_us", histMean("serve_queue_wait_seconds")*1e6, "us")
	modelSvc := histMean("serve_request_seconds")
	out.layer("serve.model_service_mean_us", modelSvc*1e6, "us")
	// Shadow sampling runs on serve-model only; serve-fast reads zeros.
	out.layer("quality.shadow_jobs", float64(sum(func(d delta) uint64 { return d.counter("quality_shadow_samples") })), "count")
	out.layer("quality.shadow_agreed", float64(sum(func(d delta) uint64 { return d.counter("quality_shadow_agree") })), "count")
	out.layer("quality.shadow_dropped", float64(sum(func(d delta) uint64 { return d.counter("quality_shadow_dropped_total") })), "count")
	svc := fastSvc
	if r.model {
		svc = modelSvc
	}

	// The ledger of the main tier's mean round trip.
	led := r.ledger(b, mk)
	pingLed := r.ledger([]*phaseResult{pingPh}, kindPing)
	out.layer("serve.wire_mean_us", (led.rtt-svc*1e9)/1e3, "us")
	out.layer("serve.conn_wait_mean_us", led.connWait/1e3, "us")
	out.layer("serve.ping_rtt_mean_us", pingLed.own/1e3, "us")
	parts := led.late + led.connWait + pingLed.own + svc*1e9
	rec, ok := ratio(parts, led.rtt, reconTolerance)
	out.layer("recon.serve_ledger", rec, "ratio")
	fmt.Fprintf(os.Stderr, "ledger (%s tier, mean ns): rtt %.0f = late %.0f + conn wait %.0f + ping %.0f + service %.0f (ratio %.3f, within %.0f%%: %v)\n",
		mk, led.rtt, led.late, led.connWait, pingLed.own, svc*1e9, rec, reconTolerance*100, ok)

	// Layer timings on the workload's own inputs.
	lt := r.g.tracer.Track("layers", "calls")
	out.layer("serve.codec_ns", codecNs(lt, r.s.tr, b), "ns")
	predictRows(out, lt, r.s.p, b)
	tensorKernels(out, lt, r.s.p.Cfg)
	out.layer("quality.score_ns", scoreNs(lt, r.s.p, b), "ns")
	return offlineStages(out, lt, r.s.tr, r.cfg.seed)
}

// p50Of is the median round trip of kind k over phases.
func p50Of(phs []*phaseResult, k kind) float64 {
	var xs []float64
	for _, ph := range phs {
		for _, l := range ph.lats(k) {
			xs = append(xs, l.rtt())
		}
	}
	return quantile(sortedCopy(xs), 0.5)
}

// ledgerMeans splits a kind's mean round trip (from the intended send
// time) into generator lateness, time spent behind the previous reply on
// the same connection, and the request's own remainder.
type ledgerMeans struct{ rtt, late, connWait, own float64 }

func (r *serveRun) ledger(phs []*phaseResult, k kind) ledgerMeans {
	var m ledgerMeans
	n := 0
	for _, ph := range phs {
		prevDone := make([]int64, len(r.g.conns))
		for _, rec := range ph.recs {
			c := r.g.streams[rec.stream].conn
			start := rec.sent
			if prevDone[c] > start {
				start = prevDone[c]
			}
			prevDone[c] = rec.done
			if rec.kind != k || !rec.answered {
				continue
			}
			m.rtt += float64(rec.done - rec.intended)
			m.late += float64(rec.sent - rec.intended)
			m.connWait += float64(start - rec.sent)
			m.own += float64(rec.done - start)
			n++
		}
	}
	f := 1 / float64(n)
	return ledgerMeans{m.rtt * f, m.late * f, m.connWait * f, m.own * f}
}

// timeCalls times fn in five batches of at least budget/5 each and
// returns the median nanoseconds per call, with one span per batch.
func timeCalls(tk *tracing.Track, name string, budget time.Duration, fn func()) float64 {
	iters := 1
	for {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		if d := time.Since(t0); d >= budget/50 || iters >= 1<<24 {
			iters = int(float64(iters) * float64(budget/5) / float64(d+1))
			break
		}
		iters *= 4
	}
	if iters < 1 {
		iters = 1
	}
	var per []float64
	for b := 0; b < 5; b++ {
		sp := tk.Begin(name)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		d := time.Since(t0)
		sp.End()
		per = append(per, float64(d.Nanoseconds())/float64(iters))
	}
	return median(per)
}

// codecNs times the four wire codec calls on frames of the workload's
// own requests and replies: one request-reply exchange's codec cost.
func codecNs(tk *tracing.Track, tr *trace.Trace, phs []*phaseResult) float64 {
	var reqs []serve.Request
	var resps []serve.Response
	for _, ph := range phs {
		for _, rec := range ph.recs {
			if len(reqs) == 256 {
				break
			}
			a := tr.Accesses[rec.pos]
			reqs = append(reqs, serve.Request{Op: serve.OpPredict, Flags: serve.FlagFast, Stream: rec.wire, PC: a.PC, Addr: a.Addr})
			resps = append(resps, serve.Response{Status: rec.status, Tier: rec.tier, Cands: append([]serve.Candidate(nil), rec.cands[:rec.ncand]...)})
		}
	}
	var buf []byte
	var resp serve.Response
	i := 0
	next := func() int { i = (i + 1) % len(reqs); return i }
	enc := timeCalls(tk, "serve.EncodeRequest", 100*time.Millisecond, func() { buf = serve.EncodeRequest(buf[:0], reqs[next()]) })
	reqFrames := make([][]byte, len(reqs))
	respFrames := make([][]byte, len(resps))
	for j := range reqs {
		reqFrames[j] = serve.EncodeRequest(nil, reqs[j])[4:]
		respFrames[j] = serve.EncodeResponse(nil, &resps[j])[4:]
	}
	dec := timeCalls(tk, "serve.DecodeRequest", 100*time.Millisecond, func() { _, _ = serve.DecodeRequest(reqFrames[next()]) })
	encR := timeCalls(tk, "serve.EncodeResponse", 100*time.Millisecond, func() { buf = serve.EncodeResponse(buf[:0], &resps[next()]) })
	decR := timeCalls(tk, "serve.DecodeResponse", 100*time.Millisecond, func() { _ = serve.DecodeResponse(respFrames[next()], &resp) })
	return enc + dec + encR + decR
}

// predictRows times Predictor.PredictAt per row at batch sizes 1, 2 and
// 32 over the trace positions the workload's model requests hit.
func predictRows(out *result, tk *tracing.Track, p *voyager.Predictor, phs []*phaseResult) {
	var pos []int
	for _, ph := range phs {
		for _, rec := range ph.recs {
			if rec.kind == kindModel {
				pos = append(pos, int(rec.pos))
			}
		}
	}
	sort.Ints(pos)
	for _, b := range []int{1, 2, 32} {
		i := 0
		batch := make([]int, b)
		ns := timeCalls(tk, fmt.Sprintf("voyager.PredictAt b%d", b), 300*time.Millisecond, func() {
			for j := range batch {
				batch[j] = pos[i%len(pos)]
				i++
			}
			_ = p.PredictAt(batch, serveDegree)
		})
		out.layer(fmt.Sprintf("voyager.predict_row_us.b%d", b), ns/float64(b)/1e3, "us")
	}
}

// tensorKernels times the LSTM gate matmuls (x·Wx and h·Wh) and the fused
// LSTM cell at the model's shapes, at 1 row (serving) and 128 rows (a
// training batch).
func tensorKernels(out *result, tk *tracing.Track, cfg voyager.Config) {
	rng := rand.New(rand.NewSource(1))
	in, h := cfg.InputDim(), cfg.Hidden
	fill := func(m *tensor.Mat) *tensor.Mat {
		for i := range m.Data {
			m.Data[i] = rng.Float32()*2 - 1
		}
		return m
	}
	wx, wh := fill(tensor.NewMat(in, 4*h)), fill(tensor.NewMat(h, 4*h))
	for _, b := range []int{1, 128} {
		x, hs := fill(tensor.NewMat(b, in)), fill(tensor.NewMat(b, h))
		gx, gh := tensor.NewMat(b, 4*h), tensor.NewMat(b, 4*h)
		ns := timeCalls(tk, fmt.Sprintf("tensor.MatMul gates b%d", b), 200*time.Millisecond, func() {
			tensor.MatMul(gx, x, wx)
			tensor.MatMul(gh, hs, wh)
		})
		macs := float64(b * (in + h) * 4 * h)
		out.layer(fmt.Sprintf("tensor.gate_matmul_gmacs.b%d", b), macs/ns, "GMAC/s")

		gates, c := fill(tensor.NewMat(b, 4*h)), fill(tensor.NewMat(b, h))
		tp := tensor.NewTape()
		ns = timeCalls(tk, fmt.Sprintf("tensor.LSTMCell b%d", b), 200*time.Millisecond, func() {
			tp.Reset()
			tp.LSTMCell(tp.Const(gates), tp.Const(c))
		})
		out.layer(fmt.Sprintf("tensor.lstmcell_ns.b%d", b), ns, "ns")
	}
}

// scoreNs times quality.Session.Score on the workload's own replies.
func scoreNs(tk *tracing.Track, p *voyager.Predictor, phs []*phaseResult) float64 {
	type scored struct {
		wire  uint64
		line  uint64
		lines []uint64
		tier  int
	}
	var xs []scored
	for _, ph := range phs {
		for _, rec := range ph.recs {
			if rec.kind == kindPing || !rec.answered {
				continue
			}
			s := scored{wire: rec.wire, line: p.LineAt(int(rec.pos)), tier: quality.TierModel}
			if rec.tier == serve.TierFast {
				s.tier = quality.TierFast
			}
			for _, c := range rec.cands[:rec.ncand] {
				if c.Addr != 0 {
					s.lines = append(s.lines, c.Addr>>trace.LineBits)
				}
			}
			xs = append(xs, s)
		}
	}
	qt := quality.New(quality.Config{Metrics: metrics.NewRegistry()})
	sessions := map[uint64]*quality.Session{}
	for _, s := range xs {
		if sessions[s.wire] == nil {
			sessions[s.wire] = qt.NewSession()
		}
	}
	i := 0
	return timeCalls(tk, "quality.Session.Score", 100*time.Millisecond, func() {
		s := xs[i%len(xs)]
		i++
		sessions[s.wire].Score(s.line, s.lines, s.tier)
	})
}
