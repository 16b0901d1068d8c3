// The admission queue and batcher: model-tier requests are posted to a
// buffered channel; one batcher goroutine coalesces them into PredictBatch
// calls.
//
// Batching policy (self-clocking): the batcher blocks for the first
// request, takes whatever else is already buffered up to MaxBatch rows, and
// runs at once. Requests that arrive while a batch runs queue up and form
// the next batch, so under load batches fill at the rate inference drains
// them, and a lone request never waits on a timer for company that is not
// coming. Because inference is row-independent, the policy affects only
// latency, never results (the batching-invariance test drives the same
// streams through disparate MaxBatch settings and forced backlogs and
// byte-compares).
package serve

import (
	"time"

	"voyager/internal/trace"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

// pending is one queued model-tier request: a snapshot of the stream's
// token window plus the trigger line needed to decode candidates. The
// handler blocks on reply (buffered, capacity 1, so the batcher never
// blocks answering).
//
// A shadow pending is a fast-tier request re-run through the model for
// drift detection: it has no reply channel (nobody is waiting), carries the
// fast tier's top-1 address, and the batcher records agreement instead of
// answering. A traced pending carries the client's span id so the batcher
// can mark the batch on the request's cross-process timeline.
type pending struct {
	row   []vocab.Tok // seqLen triples, oldest first
	line  uint64      // trigger cache line
	enq   time.Time
	reply chan []voyager.Candidate

	traced bool
	spanID uint64

	shadow  bool
	fastTop uint64 // fast tier's top-1 prefetch address (0 = none)
}

// batchLoop is the single goroutine that talks to the model. It exits when
// Close closes the queue, after answering everything still buffered.
func (s *Server) batchLoop() {
	defer s.loops.Done()
	batch := make([]*pending, 0, s.cfg.MaxBatch)
	tb := voyager.NewTokenBatch(s.seqLen)
	for {
		p, ok := <-s.queue
		if !ok {
			return
		}
		if s.beforeBatch != nil {
			s.beforeBatch()
		}
		batch = append(batch[:0], p)
	drain:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case q, ok := <-s.queue:
				if !ok {
					break drain // drained; run what we have, exit next
				}
				batch = append(batch, q)
			default:
				break drain
			}
		}
		s.runBatch(batch, tb)
	}
}

// runBatch runs one coalesced PredictBatch call and answers each request.
func (s *Server) runBatch(batch []*pending, tb *voyager.TokenBatch) {
	now := time.Now()
	for _, p := range batch {
		s.obs.queueWait.Observe(now.Sub(p.enq).Seconds())
	}
	s.obs.batches.Inc()
	s.obs.batchRows.Add(uint64(len(batch)))
	s.obs.batchFill.Observe(float64(len(batch)))

	sp := s.obs.batchTk.Begin("predict_batch")
	tb.Reset()
	for _, p := range batch {
		if p.traced {
			s.obs.rpcBatchTk.AsyncInstant("srv_batch", p.spanID)
		}
		tb.Add(p.row)
	}
	cands := s.cfg.Model.PredictTokenBatch(tb, s.degree)
	sp.End()

	for i, p := range batch {
		if p.shadow {
			// Drift check: does the model's top-1 agree with what the fast
			// tier already answered? No reply — nobody is waiting.
			var modelTop uint64
			if cs := cands[i]; len(cs) > 0 {
				if ln, ok := s.voc.Decode(p.line, cs[0].PageTok, cs[0].OffTok); ok {
					modelTop = ln << trace.LineBits
				}
			}
			s.cfg.Quality.RecordShadow(modelTop == p.fastTop)
			continue
		}
		p.reply <- cands[i] // buffered; never blocks
	}
}
