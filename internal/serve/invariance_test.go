package serve

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"voyager/internal/metrics"
)

// TestBatchingInvariance is the coalescing-independence property test:
// the same per-stream request sequences are driven through servers with
// disparate admission shapes (single-row batches, greedy drains, and
// forced backlogs that make batches fill) under randomly jittered
// interleavings, and every stream's response sequence must be
// byte-identical across all of them. Inference is row-independent, so how
// requests happened to share a PredictBatch must never leak into results.
// The backlog configs must really coalesce, or the comparison proves
// nothing about mixed batches.
func TestBatchingInvariance(t *testing.T) {
	fixture(t)
	const (
		streams = 4
		perStr  = 300
	)
	configs := []struct {
		maxBatch int
		backlog  bool // hold each batch until the other streams have queued
	}{
		{1, false},
		{8, true},
		{64, true},
		{5, false},
		{2, true},
	}
	// Stream k replays a distinct slice of the trace so the per-stream
	// sequences differ (a shared sequence would mask cross-stream mixups).
	var baseline [][]byte
	for ci, cfg := range configs {
		var hold func(*Server)
		if cfg.backlog {
			hold = func(s *Server) { awaitBacklog(s, streams-1, 2*time.Millisecond) }
		}
		reg := metrics.NewRegistry()
		s := startHeld(t, Config{
			Model:    fx.p.Model,
			MaxBatch: cfg.maxBatch,
			Metrics:  reg,
		}, hold)
		got := make([][]byte, streams)
		errs := make([]error, streams)
		var wg sync.WaitGroup
		for k := 0; k < streams; k++ {
			wg.Add(1)
			go func(k int) {
				defer wg.Done()
				got[k], errs[k] = replayRecorded(s, uint64(k), k, perStr, int64(ci*100+k))
			}(k)
		}
		wg.Wait()
		for k, err := range errs {
			if err != nil {
				t.Fatalf("config %d stream %d: %v", ci, k, err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatalf("config %d: Close: %v", ci, err)
		}
		batches := reg.Counter("serve_batches_total").Value()
		rows := reg.Counter("serve_batch_rows_total").Value()
		if rows != streams*perStr {
			t.Fatalf("config %d: %d batch rows, want %d", ci, rows, streams*perStr)
		}
		if cfg.backlog && rows <= batches {
			t.Fatalf("config %d (maxBatch=%d, backlog): %d rows in %d batches, never coalesced",
				ci, cfg.maxBatch, rows, batches)
		}
		if ci == 0 {
			baseline = got
			continue
		}
		for k := range got {
			if string(got[k]) != string(baseline[k]) {
				t.Fatalf("config %d (maxBatch=%d backlog=%v): stream %d responses differ from config 0",
					ci, cfg.maxBatch, cfg.backlog, k)
			}
		}
	}
}

// awaitBacklog holds the batcher, which has just taken a batch's first
// request, until n more requests are queued or limit has passed.
func awaitBacklog(s *Server, n int, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for len(s.queue) < n && time.Now().Before(deadline) {
		runtime.Gosched()
	}
}

// TestBatcherCoalescesBacklog pins the self-clocking policy: requests that
// queue while the batcher is busy run together as the next batch, up to
// MaxBatch rows, without any timer. k streams send one model-tier request
// each; the batcher is held on the first until the other k-1 are queued,
// then released. The batches must be exactly min(k, MaxBatch) rows and then
// the rest, and every reply must equal the offline PredictAt answer for its
// stream.
func TestBatcherCoalescesBacklog(t *testing.T) {
	fixture(t)
	for _, tc := range []struct{ k, maxBatch int }{{5, 8}, {12, 8}} {
		t.Run(fmt.Sprintf("k=%d/maxBatch=%d", tc.k, tc.maxBatch), func(t *testing.T) {
			reg := metrics.NewRegistry()
			rows := reg.Counter("serve_batch_rows_total")
			entered := make(chan struct{})
			release := make(chan struct{})
			var rowsBefore []uint64 // rows counter at each batch start
			s := startHeld(t, Config{
				Model:    fx.p.Model,
				Table:    fx.tab,
				MaxBatch: tc.maxBatch,
				Metrics:  reg,
			}, func(*Server) {
				rowsBefore = append(rowsBefore, rows.Value())
				if len(rowsBefore) == 1 {
					close(entered)
					<-release
				}
			})

			// Stream i reaches trace position 5*i on the fast tier, which
			// advances the same session window without touching the
			// batcher, so the k model-tier replies all differ.
			clients := make([]*Client, tc.k)
			for i := range clients {
				cl, err := Dial(s.Addr().String())
				if err != nil {
					t.Fatalf("Dial: %v", err)
				}
				defer func() { _ = cl.Close() }()
				clients[i] = cl
				for pos := 0; pos < 5*i; pos++ {
					a := fx.tr.Accesses[pos]
					if _, err := cl.Predict(uint64(i), a.PC, a.Addr, true); err != nil {
						t.Fatalf("stream %d warm-up pos %d: %v", i, pos, err)
					}
				}
			}

			errs := make([]error, tc.k)
			var wg sync.WaitGroup
			for i, cl := range clients {
				wg.Add(1)
				go func(i int, cl *Client) {
					defer wg.Done()
					pos := 5 * i
					a := fx.tr.Accesses[pos]
					r, err := cl.Predict(uint64(i), a.PC, a.Addr, false)
					if err == nil {
						err = compareCands(r.Cands, wantResponse(pos))
					}
					errs[i] = err
				}(i, cl)
			}
			<-entered
			for len(s.queue) < tc.k-1 {
				time.Sleep(time.Millisecond)
			}
			close(release)
			wg.Wait()
			for i, err := range errs {
				if err != nil {
					t.Fatalf("stream %d: %v", i, err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatalf("Close: %v", err)
			}

			var sizes []uint64
			for b := range rowsBefore {
				end := rows.Value()
				if b+1 < len(rowsBefore) {
					end = rowsBefore[b+1]
				}
				sizes = append(sizes, end-rowsBefore[b])
			}
			var want []uint64
			for left := tc.k; left > 0; left -= tc.maxBatch {
				want = append(want, uint64(min(left, tc.maxBatch)))
			}
			if !slices.Equal(sizes, want) {
				t.Fatalf("batch sizes %v, want %v", sizes, want)
			}
		})
	}
}

// replayRecorded replays perStr accesses starting at offset as one stream,
// with seeded random yields to vary how requests land in batches, and
// returns the concatenated encoded responses.
func replayRecorded(s *Server, streamID uint64, offset, perStr int, seed int64) ([]byte, error) {
	cl, err := Dial(s.Addr().String())
	if err != nil {
		return nil, err
	}
	defer func() { _ = cl.Close() }()
	rng := rand.New(rand.NewSource(seed))
	var out []byte
	for j := 0; j < perStr; j++ {
		a := fx.tr.Accesses[(offset+j)%len(fx.tr.Accesses)]
		r, err := cl.Predict(streamID, a.PC, a.Addr, false)
		if err != nil {
			return nil, fmt.Errorf("req %d: %w", j, err)
		}
		out = EncodeResponse(out, r)
		if rng.Intn(4) == 0 {
			runtime.Gosched()
		}
		if rng.Intn(64) == 0 {
			time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
		}
	}
	return out, nil
}
