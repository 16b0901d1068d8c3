package main

import (
	"fmt"
	"math"
	"time"

	"voyager/internal/distill"
	"voyager/internal/metrics"
	"voyager/internal/prefetch/distilled"
	"voyager/internal/serve"
	"voyager/internal/serve/quality"
	"voyager/internal/trace"
	"voyager/internal/voyager"
)

// oracle checks every reply against the offline reference and scores it
// client-side. Fast-tier replies must equal a distilled.Prefetcher replay
// of the same stream; model-tier replies must equal Predictor.PredictAt at
// the same trace position in tokens, score bits and address. Each stream
// is fed to its own quality.Session in send order.
type oracle struct {
	tr  *trace.Trace
	p   *voyager.Predictor
	tab *distill.Table
	ref [][]voyager.Candidate

	replay map[uint64]*distilled.Prefetcher // per wire stream id
	qt     *quality.Tracker                 // every reply: compared with the daemon's counters
	qs     map[uint64]*quality.Session
	// The useful rates score the predictions of the replies before
	// scoreEnd (warm-up and nominal phase), whose accesses follow from the
	// seed alone; the rate search's traffic depends on timing. Later
	// replies only settle those predictions, as demand accesses that
	// predict nothing.
	scoreEnd int
	qtNom    *quality.Tracker
	qsNom    map[uint64]*quality.Session

	failed     int // unanswered or error replies
	mismatched int // answered, but not what the reference says
	firstBad   string

	fastN     int           // fast-tier replies replayed
	replayDur time.Duration // time inside distilled.Prefetcher.Access
}

func newOracle(s *serveSetup) *oracle {
	return &oracle{
		tr: s.tr, p: s.p, tab: s.tab, ref: s.ref,
		replay: map[uint64]*distilled.Prefetcher{},
		qt:     quality.New(quality.Config{Metrics: metrics.NewRegistry()}),
		qs:     map[uint64]*quality.Session{},
		qtNom:  quality.New(quality.Config{Metrics: metrics.NewRegistry()}),
		qsNom:  map[uint64]*quality.Session{},
	}
}

// check verifies records in send order; it must see every record of a
// stream exactly once and in order.
func (o *oracle) check(recs []*record) error {
	var lines [maxDegree]uint64
	for i, r := range recs {
		if !r.answered || r.status != serve.StatusOK {
			o.failed++
			continue
		}
		if r.kind == kindPing {
			if r.ncand != 0 {
				o.bad(r, "ping answered with candidates")
			}
			continue
		}
		switch r.kind {
		case kindFast:
			if err := o.checkFast(r); err != nil {
				return err
			}
		case kindModel:
			o.checkModel(r)
		}
		n := 0
		for _, c := range r.cands[:r.ncand] {
			if c.Addr != 0 {
				lines[n] = c.Addr >> trace.LineBits
				n++
			}
		}
		tier := quality.TierModel
		if r.tier == serve.TierFast {
			tier = quality.TierFast
		}
		line := o.p.LineAt(int(r.pos))
		score(o.qt, o.qs, r.wire, line, lines[:n], tier)
		if i >= o.scoreEnd {
			n = 0
		}
		score(o.qtNom, o.qsNom, r.wire, line, lines[:n], tier)
	}
	return nil
}

// score feeds one reply to its stream's session of tracker t.
func score(t *quality.Tracker, ss map[uint64]*quality.Session, wire, line uint64, lines []uint64, tier int) {
	qs := ss[wire]
	if qs == nil {
		qs = t.NewSession()
		ss[wire] = qs
	}
	qs.Score(line, lines, tier)
}

func (o *oracle) checkFast(r *record) error {
	rp := o.replay[r.wire]
	if rp == nil {
		var err error
		rp, err = distilled.New(o.tab, o.p.Model.Vocab(), serveDegree)
		if err != nil {
			return err
		}
		o.replay[r.wire] = rp
	}
	t0 := time.Now()
	want := rp.Access(int(r.pos), o.tr.Accesses[r.pos])
	o.replayDur += time.Since(t0)
	o.fastN++
	if r.tier != serve.TierFast || int(r.ncand) != len(want) {
		o.bad(r, fmt.Sprintf("fast tier %d with %d candidates, want tier %d with %d", r.tier, r.ncand, serve.TierFast, len(want)))
		return nil
	}
	for i, c := range r.cands[:r.ncand] {
		if c.Addr != want[i] || c.ScoreBits != 0 {
			o.bad(r, fmt.Sprintf("fast candidate %d = %#x (score bits %#x), want %#x", i, c.Addr, c.ScoreBits, want[i]))
			return nil
		}
	}
	return nil
}

func (o *oracle) checkModel(r *record) {
	want := o.ref[r.pos]
	if r.tier != serve.TierModel || int(r.ncand) != len(want) {
		o.bad(r, fmt.Sprintf("model tier %d with %d candidates, want tier %d with %d", r.tier, r.ncand, serve.TierModel, len(want)))
		return
	}
	line := o.p.LineAt(int(r.pos))
	for i, c := range r.cands[:r.ncand] {
		w := want[i]
		var addr uint64
		if ln, ok := o.p.Model.Vocab().Decode(line, w.PageTok, w.OffTok); ok {
			addr = ln << trace.LineBits
		}
		if int(c.PageTok) != w.PageTok || int(c.OffTok) != w.OffTok || c.ScoreBits != math.Float64bits(w.Score) || c.Addr != addr {
			o.bad(r, fmt.Sprintf("model candidate %d = (%d,%d,%#x,%#x), want (%d,%d,%#x,%#x)", i,
				c.PageTok, c.OffTok, c.ScoreBits, c.Addr, w.PageTok, w.OffTok, math.Float64bits(w.Score), addr))
			return
		}
	}
}

func (o *oracle) bad(r *record, msg string) {
	o.mismatched++
	if o.firstBad == "" {
		o.firstBad = fmt.Sprintf("stream %d position %d: %s", r.stream, r.pos, msg)
	}
}

// closeSessions settles every client-side quality session, mirroring the
// OpClose the daemon received for each stream.
func (o *oracle) closeSessions() {
	for _, ss := range []map[uint64]*quality.Session{o.qs, o.qsNom} {
		for _, qs := range ss {
			qs.Close()
		}
	}
}

// tierCounts sums the replayers' fallback-tier counts.
func (o *oracle) tierCounts() [distill.NumTiers]int {
	var t [distill.NumTiers]int
	for _, rp := range o.replay {
		c := rp.TierCounts()
		for i := range t {
			t[i] += c[i]
		}
	}
	return t
}
