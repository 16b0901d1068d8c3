package main

import (
	"fmt"
	"math"
	"sort"
)

// The analyser: pure functions over latency samples. selfCheck (run at the
// start of every benchmark run) and stats_test.go feed them synthetic
// inputs with known answers, because a bug here would silently move every
// reported number.

// quantile returns the nearest-rank q-quantile of an ascending slice: the
// smallest sample with at least q of the samples at or below it. It
// returns NaN on an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(n))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= n {
		rank = n - 1
	}
	return sorted[rank]
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value (mean of the two middle values for an
// even count), NaN when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean, NaN when empty.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// windowedQuantile splits samples (in arrival order, with their intended
// send times ts) into `windows` equal spans of time between lo and hi and
// returns the median over windows of each window's q-quantile, plus the
// smallest per-window sample count. Reporting the median window keeps one
// host stall from deciding a whole run's tail.
func windowedQuantile(ts []int64, xs []float64, lo, hi int64, windows int, q float64) (float64, int) {
	per, minN := perWindow(ts, xs, lo, hi, windows, q)
	return median(per), minN
}

// perWindow returns each non-empty window's q-quantile and the smallest
// window sample count.
func perWindow(ts []int64, xs []float64, lo, hi int64, windows int, q float64) ([]float64, int) {
	if windows < 1 || hi <= lo {
		return nil, 0
	}
	buckets := make([][]float64, windows)
	span := float64(hi - lo)
	for i, t := range ts {
		w := int(float64(t-lo) / span * float64(windows))
		if w < 0 || w >= windows {
			continue
		}
		buckets[w] = append(buckets[w], xs[i])
	}
	per := make([]float64, 0, windows)
	minN := -1
	for _, b := range buckets {
		if len(b) == 0 {
			continue
		}
		per = append(per, quantile(sortedCopy(b), q))
		if minN < 0 || len(b) < minN {
			minN = len(b)
		}
	}
	if minN < 0 {
		minN = 0
	}
	return per, minN
}

// step is one probe of the maximum-rate search.
type step struct {
	Rate float64 // offered requests per second
	P99  float64 // p99 round trip at that rate (same unit as the limit)
	Pass bool    // p99 within the limit, no failure, no growing backlog
}

// searchMaxRate finds the highest offered rate that passes, starting at
// start. It grows the rate by 1.5x until a probe fails (or shrinks it
// until one passes), then bisects geometrically until the bracket is
// within 5%. The answer interpolates the p99 crossing of the limit inside
// the final bracket, so it moves continuously with the system instead of
// snapping to the search lattice. It returns 0 when no probe passed and
// the highest passing rate when none failed.
func searchMaxRate(start, limit float64, maxSteps int, probe func(rate float64) step) (float64, []step) {
	const grow, resolution = 1.5, 1.05
	var steps []step
	var lo, hi *step
	r := start
	for len(steps) < maxSteps {
		s := probe(r)
		s.Rate = r
		steps = append(steps, s)
		last := &steps[len(steps)-1]
		if s.Pass {
			if lo == nil || r > lo.Rate {
				lo = last
			}
		} else if hi == nil || r < hi.Rate {
			hi = last
		}
		switch {
		case hi == nil:
			r *= grow
		case lo == nil:
			r /= grow
		case hi.Rate/lo.Rate <= resolution:
			return interpolateRate(*lo, *hi, limit), steps
		default:
			r = math.Sqrt(lo.Rate * hi.Rate)
		}
	}
	switch {
	case lo == nil:
		return 0, steps
	case hi == nil:
		return lo.Rate, steps
	}
	return interpolateRate(*lo, *hi, limit), steps
}

// interpolateRate places the limit crossing linearly between a passing and
// a failing probe. A failing probe whose p99 is still under the limit
// (it failed on errors or backlog) pins the answer to the passing rate.
func interpolateRate(lo, hi step, limit float64) float64 {
	if !(hi.P99 > lo.P99) || !(hi.P99 > limit) {
		return lo.Rate
	}
	f := (limit - lo.P99) / (hi.P99 - lo.P99)
	f = math.Max(0, math.Min(1, f))
	return lo.Rate + f*(hi.Rate-lo.Rate)
}

// ratio returns num/den as a reconciliation figure and whether it lies
// within tol of 1.
func ratio(num, den, tol float64) (float64, bool) {
	if den == 0 || math.IsNaN(num) || math.IsNaN(den) {
		return math.NaN(), false
	}
	r := num / den
	return r, math.Abs(r-1) <= tol
}

// latency is the timing view of one finished request, all in nanoseconds
// since the generator started.
type latency struct {
	intended, sent, done int64
}

func (l latency) rtt() float64  { return float64(l.done - l.intended) }
func (l latency) late() float64 { return float64(l.sent - l.intended) }

// summary is the timing digest of one phase.
type summary struct {
	N        int
	P50, P99 float64 // round trip from the intended send time, ns
	WinP50   []float64
	WinP99   []float64
	MinWin   int     // smallest per-window sample count behind P50/P99
	MeanRTT  float64 // ns
	LateP50  float64 // generator send lateness, ns
	LateP99  float64
	LateMean float64
	SentP50  float64 // round trip from the actual send time, ns
}

// summarize digests a phase's requests. p50 and p99 are medians over
// `windows` equal time windows of the per-window quantiles.
func summarize(ls []latency, lo, hi int64, windows int) summary {
	ts := make([]int64, len(ls))
	rtt := make([]float64, len(ls))
	late := make([]float64, len(ls))
	for i, l := range ls {
		ts[i], rtt[i], late[i] = l.intended, l.rtt(), l.late()
	}
	s := summary{N: len(ls), MeanRTT: mean(rtt), LateMean: mean(late)}
	s.WinP50, s.MinWin = perWindow(ts, rtt, lo, hi, windows, 0.50)
	s.WinP99, _ = perWindow(ts, rtt, lo, hi, windows, 0.99)
	s.P50, s.P99 = median(s.WinP50), median(s.WinP99)
	sl := sortedCopy(late)
	s.LateP50, s.LateP99 = quantile(sl, 0.5), quantile(sl, 0.99)
	for i := range rtt {
		rtt[i] -= late[i]
	}
	s.SentP50 = quantile(sortedCopy(rtt), 0.5)
	return s
}

// selfCheck runs the analyser on synthetic inputs whose answers are known
// in closed form. A failure means the analyser, not the system, is wrong,
// so the run stops before reporting anything.
func selfCheck() error {
	// Nearest rank over 1..100.
	var xs []float64
	for i := 100; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	s := sortedCopy(xs)
	if q := quantile(s, 0.5); q != 50 {
		return fmt.Errorf("p50 of 1..100 = %v, want 50", q)
	}
	if q := quantile(s, 0.99); q != 99 {
		return fmt.Errorf("p99 of 1..100 = %v, want 99", q)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		return fmt.Errorf("median = %v, want 2.5", m)
	}

	// Windowed tail: four windows of 1..100 plus one stalled window whose
	// every sample is 1e6. The median window must ignore the stall.
	var ts []int64
	xs = xs[:0]
	for w := 0; w < 5; w++ {
		for i := 1; i <= 100; i++ {
			ts = append(ts, int64(w*1000+i))
			v := float64(i)
			if w == 2 {
				v = 1e6
			}
			xs = append(xs, v)
		}
	}
	if q, n := windowedQuantile(ts, xs, 0, 5000, 5, 0.99); q != 99 || n != 100 {
		return fmt.Errorf("windowed p99 = %v over min %d samples, want 99 over 100", q, n)
	}

	// Lateness and round trip are measured from the intended send time:
	// a request due at 100, sent at 130 and answered at 180 waited 80, of
	// which 30 was the generator's own lateness.
	l := latency{intended: 100, sent: 130, done: 180}
	if l.rtt() != 80 || l.late() != 30 {
		return fmt.Errorf("latency of %+v = rtt %v late %v, want 80 and 30", l, l.rtt(), l.late())
	}
	// A fixed delay added to every completion shows up, at its size, in
	// every round-trip figure and in nothing the generator controls.
	var base, delayed []latency
	for i := int64(0); i < 1000; i++ {
		b := latency{intended: i * 1000, sent: i*1000 + i%7, done: i*1000 + 500 + (i*37)%400}
		base = append(base, b)
		b.done += 250
		delayed = append(delayed, b)
	}
	sb, sd := summarize(base, 0, 1_000_000, 4), summarize(delayed, 0, 1_000_000, 4)
	if sd.P50-sb.P50 != 250 || sd.P99-sb.P99 != 250 || math.Abs(sd.MeanRTT-sb.MeanRTT-250) > 1e-9 || sd.LateP99 != sb.LateP99 {
		return fmt.Errorf("injected 250ns delay moved p50 %v p99 %v mean %v late %v",
			sd.P50-sb.P50, sd.P99-sb.P99, sd.MeanRTT-sb.MeanRTT, sd.LateP99-sb.LateP99)
	}

	// Rate search on an M/D/1-like model: p99(r) = 1/(c-r) for r < c.
	// With capacity c and limit L the true crossing is c - 1/L.
	const c, limit = 1000.0, 0.05
	truth := c - 1/limit
	probe := func(r float64) step {
		p99 := math.Inf(1)
		if r < c {
			p99 = 1 / (c - r)
		}
		return step{P99: p99, Pass: p99 <= limit}
	}
	for _, start := range []float64{100, 2000} {
		got, steps := searchMaxRate(start, limit, 20, probe)
		if math.Abs(got-truth)/truth > 0.05 {
			return fmt.Errorf("rate search from %v found %v after %d steps, want %v within 5%%", start, got, len(steps), truth)
		}
	}
	if got, _ := searchMaxRate(100, limit, 20, func(float64) step { return step{P99: 1, Pass: false} }); got != 0 {
		return fmt.Errorf("rate search with no passing probe = %v, want 0", got)
	}

	// Reconciliation: parts that sum to the total reconcile exactly; a
	// missing 20% share does not pass a 10% tolerance.
	if r, ok := ratio(30+5+65, 100, 0.01); !ok || r != 1 {
		return fmt.Errorf("exact parts reconcile to %v", r)
	}
	if _, ok := ratio(80, 100, 0.10); ok {
		return fmt.Errorf("an 80%% sum passed a 10%% tolerance")
	}
	return nil
}
