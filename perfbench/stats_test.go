package main

import (
	"math/rand"
	"testing"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/serve"
	"voyager/internal/voyager"
	"voyager/internal/workloads"
)

func TestAnalyserSelfCheck(t *testing.T) {
	if err := selfCheck(); err != nil {
		t.Fatal(err)
	}
}

// TestInjectedDelay drives an in-process server with the real generator
// twice, once with every frame held for a fixed time before it reaches
// the socket. The delay must show up, at its size, in the median round
// trip and in serve.wire_mean. The p99 path gets the same check on
// synthetic data in selfCheck; on real traffic a shared host moves it by
// more than the delay.
func TestInjectedDelay(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model and serves for seconds")
	}
	tr, err := workloads.Generate("cc", workloads.Config{Seed: 7, Scale: 1, MaxAccesses: 1200})
	if err != nil {
		t.Fatal(err)
	}
	cfg := voyager.FastConfig()
	cfg.Workers, cfg.Degree, cfg.DropoutKeep = 1, serveDegree, 1
	cfg.EpochAccesses, cfg.PassesPerEpoch = tr.Len(), 1
	p, err := voyager.Train(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := serve.New(serve.Config{Model: p.Model, Table: distill.Compile(p, 0, p.NumAccesses(), distill.DefaultParams()), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer func() { _ = srv.Close() }()

	const d = 2 * time.Millisecond
	measure := func(delay time.Duration) (summary, float64) {
		streams := make([]stream, 64)
		idx := make([]int, len(streams))
		for i := range streams {
			streams[i] = stream{kind: kindFast, offset: i * 13}
			idx[i] = i
		}
		g, err := newGenerator(srv.Addr().String(), 2, tr, streams, nil, delay)
		if err != nil {
			t.Fatal(err)
		}
		defer g.close()
		before := reg.Snapshot()
		ph := g.run(rand.New(rand.NewSource(1)), []source{{rate: 100, streams: idx}}, 3*time.Second, 0, drainTimeout, nil, false)
		after := reg.Snapshot()
		if ph.err != nil || ph.failures() != 0 {
			t.Fatalf("phase: err %v, %d failures", ph.err, ph.failures())
		}
		s := summarize(ph.lats(kindFast), ph.lo, ph.hi, 4)
		svc := delta{&before, &after}.histMean("serve_fast_request_seconds") * 1e9
		return s, s.MeanRTT - svc
	}
	base, baseWire := measure(0)
	slow, slowWire := measure(d)
	within := func(name string, got float64) {
		if got < 0.6*float64(d) || got > 1.6*float64(d) {
			t.Errorf("%s moved by %.0fns under a %v injected delay", name, got, d)
		}
	}
	within("p50 round trip", slow.P50-base.P50)
	within("serve.wire_mean", slowWire-baseWire)
	t.Logf("p50 %.0f -> %.0f ns, p99 %.0f -> %.0f ns, wire %.0f -> %.0f ns", base.P50, slow.P50, base.P99, slow.P99, baseWire, slowWire)
}
