package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"voyager/internal/serve"
	"voyager/internal/trace"
	"voyager/internal/tracing"
)

// The load generator: one process, a few TCP connections, many streams.
//
// It is open-loop. A scheduler sends every request at its intended time on
// a seeded Poisson schedule and never waits for a reply; a reader per
// connection matches replies to requests in FIFO order (the daemon answers
// each connection's requests in order). Round trips are measured from the
// intended send time, so a stall that delays later sends is charged to
// those requests instead of hiding them.

// maxDegree bounds the candidates a record keeps; the daemon runs at
// serveDegree, which must not exceed it.
const maxDegree = 2

// kind is what a request asks for.
type kind uint8

const (
	kindFast kind = iota
	kindModel
	kindPing
)

func (k kind) String() string {
	return [...]string{"fast", "model", "ping"}[k]
}

// record is one request and, once answered, its reply.
type record struct {
	id       uint64
	stream   int32
	kind     kind
	pos      int32  // trace position of the access
	wire     uint64 // stream id on the wire
	intended int64  // ns since the generator started
	sent     int64
	done     int64
	answered bool
	traced   bool // spans recorded for this request
	status   byte
	tier     byte
	ncand    uint8
	cands    [maxDegree]serve.Candidate
}

func (r *record) lat() latency { return latency{intended: r.intended, sent: r.sent, done: r.done} }

// stream is one client stream: a cursor over the trace pinned to a
// connection.
type stream struct {
	kind   kind
	conn   int
	offset int    // trace position of the stream's first access
	n      int    // requests sent in the current generation
	gen    int    // generation: a model stream that exhausts the trace restarts as a new session
	wire   uint64 // current wire id
	wires  []uint64
}

// wireID gives every (stream, generation) its own daemon session.
func wireID(s, gen int) uint64 { return uint64(gen)<<32 | uint64(s+1) }

// gconn is one client connection.
type gconn struct {
	c        net.Conn
	w        net.Conn // where frames are written; c unless a delay is injected
	inflight chan *record
	out      []byte
	sent     atomic.Int64
	answered atomic.Int64
	err      atomic.Pointer[error]
	track    *tracing.Track
}

// generator owns the connections, streams and every record of a run.
type generator struct {
	tr      *trace.Trace
	start   time.Time
	conns   []*gconn
	streams []stream
	recs    []*record // every request ever sent, in send order
	slab    []record  // records are carved from slabs to keep the collector quiet
	nextID  uint64

	tracer *tracing.Tracer
	sendTk *tracing.Track

	readers sync.WaitGroup
}

// maxInflight bounds the requests outstanding on one connection: beyond
// it the scheduler stops a probe and marks its backlog as growing.
const maxInflight = 1 << 14

// newGenerator dials nconns connections to addr and starts their readers.
// writeDelay, when non-zero, holds every frame that long before it reaches
// the socket (the analyser self-test injects it).
func newGenerator(addr string, nconns int, tr *trace.Trace, streams []stream, tracer *tracing.Tracer, writeDelay time.Duration) (*generator, error) {
	g := &generator{tr: tr, start: time.Now(), streams: streams, tracer: tracer}
	for i := range g.streams {
		st := &g.streams[i]
		st.conn = i % nconns
		st.wire = wireID(i, 0)
		st.wires = append(st.wires[:0], st.wire)
	}
	if tracer != nil {
		g.sendTk = tracer.Track("loadgen", "scheduler")
	}
	for i := 0; i < nconns; i++ {
		c, err := net.DialTimeout("tcp", addr, 5*time.Second)
		if err != nil {
			g.close()
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		if tc, ok := c.(*net.TCPConn); ok {
			_ = tc.SetNoDelay(true) // the default; stated because latency depends on it
		}
		gc := &gconn{c: c, w: c, inflight: make(chan *record, maxInflight)}
		if writeDelay > 0 {
			gc.w = delayConn{Conn: c, d: writeDelay}
		}
		if tracer != nil {
			gc.track = tracer.Track("loadgen", fmt.Sprintf("conn-%d", i))
		}
		g.conns = append(g.conns, gc)
		g.readers.Add(1)
		go g.read(gc)
	}
	return g, nil
}

// delayConn holds each write for d before passing it on: a client-side
// delay of known size for the analyser self-test.
type delayConn struct {
	net.Conn
	d time.Duration
}

func (c delayConn) Write(p []byte) (int, error) {
	end := time.Now().Add(c.d)
	for time.Now().Before(end) {
	}
	return c.Conn.Write(p)
}

func (g *generator) now() int64 { return int64(time.Since(g.start)) }

// read matches replies to requests on one connection until the inflight
// channel closes or the connection fails.
func (g *generator) read(gc *gconn) {
	defer g.readers.Done()
	br := bufio.NewReaderSize(gc.c, 64<<10)
	var buf []byte
	var resp serve.Response
	for rec := range gc.inflight {
		if gc.err.Load() != nil {
			continue // connection already failed: leave the rest unanswered
		}
		p, err := serve.ReadFrame(br, buf)
		if err == nil {
			buf = p
			err = serve.DecodeResponse(p, &resp)
		}
		if err != nil {
			gc.err.Store(&err)
			continue
		}
		rec.done = g.now()
		if rec.traced {
			gc.track.AsyncEnd("request", rec.id)
		}
		rec.status, rec.tier = resp.Status, resp.Tier
		rec.ncand = uint8(copy(rec.cands[:], resp.Cands))
		if len(resp.Cands) > maxDegree {
			rec.status = 0xff // more candidates than requested: a wrong answer
		}
		rec.answered = true
		gc.answered.Add(1)
	}
}

// close shuts every connection and waits for the readers.
func (g *generator) close() {
	for _, gc := range g.conns {
		close(gc.inflight)
		_ = gc.c.Close()
	}
	g.readers.Wait()
	g.conns = nil
}

// source is one Poisson arrival process over a set of streams.
type source struct {
	rate    float64 // requests per second
	streams []int
}

// phaseResult is what one phase sent.
type phaseResult struct {
	recs       []*record
	lo, hi     int64 // intended-time span of the phase
	backlogged bool  // a connection exceeded its inflight bound
	err        error // a connection failed or did not drain
}

// failures counts unanswered and error replies.
func (p *phaseResult) failures() int {
	n := 0
	for _, r := range p.recs {
		if !r.answered || r.status != serve.StatusOK {
			n++
		}
	}
	return n
}

// lats returns the timing view of the phase's requests of kind k. A
// request that was not answered, or answered with an error, misses every
// latency limit: it counts as answered a day late.
func (p *phaseResult) lats(k kind) []latency {
	var out []latency
	for _, r := range p.recs {
		if r.kind != k {
			continue
		}
		l := r.lat()
		if !r.answered || r.status != serve.StatusOK {
			l.done = l.intended + int64(24*time.Hour)
		}
		out = append(out, l)
	}
	return out
}

// run sends one phase: every source's Poisson arrivals for dur, then waits
// up to drain for the last reply. With maxBacklog > 0 the phase stops
// early once that many requests are outstanding on a connection. kindOf
// overrides a stream's request kind (pings) when set.
func (g *generator) run(rng *rand.Rand, sources []source, dur time.Duration, maxBacklog int64, drain time.Duration, kindOf func(*stream) kind, traced bool) *phaseResult {
	res := &phaseResult{}
	if maxBacklog <= 0 || maxBacklog >= maxInflight {
		maxBacklog = maxInflight - 1 // the inflight push below must never block
	}
	next := make([]float64, len(sources)) // seconds since phase start
	for i, s := range sources {
		next[i] = rng.ExpFloat64() / s.rate
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	setTimerSlack()
	t0 := g.now()
	end := t0 + int64(dur)
	res.lo, res.hi = t0, end
	pending := make([]*gconn, 0, len(g.conns))
	for {
		// Earliest arrival over all sources.
		si := 0
		for i := range next {
			if next[i] < next[si] {
				si = i
			}
		}
		at := t0 + int64(next[si]*1e9)
		if at >= end {
			break
		}
		sleepUntil(g, at)
		// Send every request that is due now, one write per connection.
		pending = pending[:0]
		stop := false
		for {
			si = 0
			for i := range next {
				if next[i] < next[si] {
					si = i
				}
			}
			at = t0 + int64(next[si]*1e9)
			if at >= end || at > g.now() {
				break
			}
			src := sources[si]
			s := src.streams[rng.Intn(len(src.streams))]
			next[si] += rng.ExpFloat64() / src.rate
			gc := g.conns[g.streams[s].conn]
			if gc.sent.Load()-gc.answered.Load() >= maxBacklog {
				res.backlogged = true
				stop = true
				break
			}
			k := g.streams[s].kind
			if kindOf != nil {
				k = kindOf(&g.streams[s])
			}
			rec := g.issue(s, k, at, traced)
			res.recs = append(res.recs, rec)
			if len(pending) == 0 || !containsConn(pending, gc) {
				pending = append(pending, gc)
			}
			gc.sent.Add(1)
			gc.inflight <- rec
		}
		g.flush(pending)
		if stop {
			break
		}
	}
	res.err = g.drain(drain)
	return res
}

func containsConn(cs []*gconn, c *gconn) bool {
	for _, x := range cs {
		if x == c {
			return true
		}
	}
	return false
}

// issue builds stream s's next request, appends its frame to the stream's
// connection buffer and returns its record.
func (g *generator) issue(s int, k kind, at int64, traced bool) *record {
	st := &g.streams[s]
	g.nextID++
	rec := g.alloc()
	*rec = record{id: g.nextID, stream: int32(s), kind: k, intended: at, traced: traced}
	gc := g.conns[st.conn]
	req := serve.Request{Op: serve.OpPing}
	if k != kindPing {
		n := len(g.tr.Accesses)
		if k == kindModel && st.n == n {
			// The model reference replays the trace from its start, so a
			// model stream that runs off the end starts a fresh session.
			st.gen++
			st.n = 0
			st.wire = wireID(s, st.gen)
			st.wires = append(st.wires, st.wire)
		}
		pos := (st.offset + st.n) % n
		st.n++
		a := g.tr.Accesses[pos]
		rec.pos = int32(pos)
		req = serve.Request{Op: serve.OpPredict, Stream: st.wire, PC: a.PC, Addr: a.Addr}
		if k == kindFast {
			req.Flags = serve.FlagFast
		}
	}
	rec.wire = st.wire
	gc.out = serve.EncodeRequest(gc.out, req)
	rec.sent = g.now()
	if traced {
		g.sendTk.AsyncBegin("request", rec.id)
	}
	g.recs = append(g.recs, rec)
	return rec
}

// alloc returns a zeroed record from the current slab.
func (g *generator) alloc() *record {
	if len(g.slab) == 0 {
		g.slab = make([]record, 4096)
	}
	r := &g.slab[0]
	g.slab = g.slab[1:]
	return r
}

// flush writes each pending connection's buffered frames.
func (g *generator) flush(pending []*gconn) {
	for _, gc := range pending {
		if len(gc.out) == 0 {
			continue
		}
		if _, err := gc.w.Write(gc.out); err != nil && gc.err.Load() == nil {
			gc.err.Store(&err)
		}
		gc.out = gc.out[:0]
	}
}

// drain waits until every connection has answered all it was sent, or the
// deadline passes.
func (g *generator) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for _, gc := range g.conns {
		for gc.answered.Load() < gc.sent.Load() {
			if p := gc.err.Load(); p != nil {
				return fmt.Errorf("connection failed: %w", *p)
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("%d replies outstanding after %v", gc.sent.Load()-gc.answered.Load(), limit)
			}
			time.Sleep(200 * time.Microsecond)
		}
		if p := gc.err.Load(); p != nil {
			return fmt.Errorf("connection failed: %w", *p)
		}
	}
	return nil
}

// closeStreams sends OpClose for every session the streams opened, so the
// daemon settles their pending quality verdicts, and waits for the acks.
func (g *generator) closeStreams(drain time.Duration) error {
	for i := range g.streams {
		st := &g.streams[i]
		gc := g.conns[st.conn]
		for _, w := range st.wires {
			g.nextID++
			rec := &record{id: g.nextID, stream: int32(i), kind: kindPing, wire: w}
			gc.out = serve.EncodeRequest(gc.out, serve.Request{Op: serve.OpClose, Stream: w})
			gc.sent.Add(1)
			gc.inflight <- rec
		}
	}
	g.flush(g.conns)
	if err := g.drain(drain); err != nil {
		return err
	}
	return nil
}

// setTimerSlack asks the kernel to wake this thread's sleeps on time
// (PR_SET_TIMERSLACK = 1ns). The default 50µs slack would otherwise show
// up as generator lateness on every request.
func setTimerSlack() {
	const prSetTimerSlack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerSlack, 1, 0)
}

// sleepUntil blocks the scheduler until t (ns since the generator
// started). The Go timer wakes late by up to a millisecond here, so short
// waits sleep in nanosleep on the scheduler's locked thread instead.
func sleepUntil(g *generator, t int64) {
	for {
		d := t - g.now()
		if d <= 0 {
			return
		}
		if d > int64(2*time.Millisecond) {
			time.Sleep(time.Duration(d) - time.Millisecond)
			continue
		}
		ts := syscall.NsecToTimespec(d)
		// EINTR (a preemption signal) just loops. The raw call keeps this
		// thread's P, which is only safe when the readers have another.
		if runtime.GOMAXPROCS(0) > 1 {
			_, _, _ = syscall.RawSyscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		} else {
			_, _, _ = syscall.Syscall(syscall.SYS_NANOSLEEP, uintptr(unsafe.Pointer(&ts)), 0, 0)
		}
	}
}

// sweep sends one request per entry of seq, in order, in bursts of 256
// that each wait for their replies: warm-up traffic outside any measured
// phase.
func (g *generator) sweep(seq []int) {
	const burst = 256
	for i := 0; i < len(seq); i += burst {
		j := i + burst
		if j > len(seq) {
			j = len(seq)
		}
		for _, s := range seq[i:j] {
			rec := g.issue(s, g.streams[s].kind, g.now(), false)
			gc := g.conns[g.streams[s].conn]
			gc.sent.Add(1)
			gc.inflight <- rec
		}
		g.flush(g.conns)
		if err := g.drain(drainTimeout); err != nil {
			return // the reply check reports the unanswered requests
		}
	}
}
