package voyager

import (
	"fmt"

	"voyager/internal/label"
	"voyager/internal/metrics"
	"voyager/internal/nn"
	"voyager/internal/prefetch"
	"voyager/internal/trace"
	"voyager/internal/tracing"
	"voyager/internal/vocab"
)

// Predictor is a trained Voyager model bound to one trace, holding the
// per-access predictions produced by the online protocol.
type Predictor struct {
	Cfg   Config
	Model *Model

	lines  []uint64
	pcs    []uint64
	tokens []vocab.Tok
	labels []label.Labels

	preds      [][]uint64 // per access: predicted line-aligned byte addrs
	epochLoss  []float32
	numTrained int

	// Batch-assembly scratch reused across batches: the sequence buffers and
	// the per-row label slices are allocated once and recycled, so steady-
	// state training allocates nothing here (same pattern as the predictRange
	// seen-map hoist).
	seqBuf                []batchToken
	winBuf                []vocab.Tok
	pagePosBuf, offPosBuf [][]int
	pageWBuf, offWBuf     [][]float32
	scanPage, scanOff     []int
	scanPageW, scanOffW   []float32
}

// Train runs the paper's online protocol over the trace: the model trains
// on epoch i and predicts epoch i+1; no inference happens in the first
// epoch. It returns the bound predictor.
func Train(tr *trace.Trace, cfg Config) (*Predictor, error) {
	p, err := newPredictor(tr, cfg)
	if err != nil {
		return nil, err
	}

	opt := nn.NewAdam(cfg.LearningRate)
	if cfg.DecayRatio > 0 {
		opt.DecayBy = cfg.DecayRatio
	}
	mainTk := p.Model.spans.main
	opt.Track = mainTk

	n := tr.Len()
	for start := 0; start < n; start += cfg.EpochAccesses {
		end := start + cfg.EpochAccesses
		if end > n {
			end = n
		}
		epochSp := mainTk.Begin("epoch")
		if start > 0 {
			predSp := mainTk.Begin("predict_range")
			p.predictRange(start, end)
			predSp.End()
		}
		passes := cfg.PassesPerEpoch
		if passes < 1 {
			passes = 1
		}
		obs := p.Model.obs
		epochT := metrics.StartTimer(obs.epochSec)
		var loss float32
		for pass := 0; pass < passes; pass++ {
			trainSp := mainTk.Begin("train_range")
			loss = p.trainRange(start, end, opt)
			trainSp.End()
		}
		epochT.Stop()
		obs.epochs.Inc()
		p.epochLoss = append(p.epochLoss, loss)
		opt.Decay()
		epochSp.End()
	}
	return p, nil
}

// newPredictor binds an untrained model to a trace: vocabulary, labels and
// the pre-encoded per-access tokens, ready for the epoch loop (or for a
// bench harness that drives batches directly).
func newPredictor(tr *trace.Trace, cfg Config) (*Predictor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if tr.Len() == 0 {
		return nil, fmt.Errorf("voyager: empty trace")
	}
	voc := vocab.Build(tr, cfg.vocabOptions())
	model := NewModel(cfg, voc)
	p := &Predictor{
		Cfg:    cfg,
		Model:  model,
		labels: label.Compute(tr),
		preds:  make([][]uint64, tr.Len()),
	}
	p.lines = make([]uint64, tr.Len())
	p.pcs = make([]uint64, tr.Len())
	p.tokens = make([]vocab.Tok, tr.Len())
	st := voc.NewStream(1)
	for i, a := range tr.Accesses {
		p.tokens[i] = st.Advance(a.PC, a.Addr)
		p.lines[i] = st.Line()
		p.pcs[i] = a.PC
	}
	return p, nil
}

// buildBatch assembles the token sequences for the given trigger positions.
// The returned batch aliases per-predictor scratch reused across calls: it
// stays valid until the next buildBatch on this predictor (callers that need
// a stable copy, like the bench harness, must clone it).
func (p *Predictor) buildBatch(positions []int) []batchToken {
	T := p.Cfg.SeqLen
	for len(p.seqBuf) < T {
		p.seqBuf = append(p.seqBuf, batchToken{})
	}
	seqs := p.seqBuf[:T]
	for s := 0; s < T; s++ {
		seqs[s].pc = growInts(seqs[s].pc, len(positions))
		seqs[s].page = growInts(seqs[s].page, len(positions))
		seqs[s].off = growInts(seqs[s].off, len(positions))
	}
	if len(p.winBuf) != T {
		p.winBuf = make([]vocab.Tok, T)
	}
	for b, pos := range positions {
		vocab.WindowAt(p.tokens, pos, p.winBuf)
		for s, tk := range p.winBuf {
			seqs[s].pc[b] = int(tk.PC)
			seqs[s].page[b] = int(tk.Page)
			seqs[s].off[b] = int(tk.Off)
		}
	}
	return seqs
}

// growInts returns s resized to n elements, reusing its backing array when
// it is large enough (contents are fully overwritten by the caller).
func growInts(s []int, n int) []int {
	if cap(s) < n {
		return make([]int, n)
	}
	return s[:n]
}

// schemeWeight is the soft BCE target for each labeling scheme. The
// primary (global) label trains toward 1; secondary localizations train
// toward lower targets so that, when several labels are equally
// predictable, both heads rank the *same* label first — without this, the
// independently predicted page and offset can pair across different labels
// and emit an address no label ever named. When a secondary label is more
// predictable than a noisy global one, its expected activation still wins
// (the paper's "learn the most predictable label").
func schemeWeight(s label.Scheme, single bool) float32 {
	if single {
		return 1
	}
	switch s {
	case label.Global:
		return 1
	case label.PC:
		return 0.9
	case label.CoOccurrence:
		return 0.8
	case label.BasicBlock:
		return 0.7
	case label.Spatial:
		return 0.6
	}
	return 0.5
}

// labelTokens encodes every configured scheme's label for trigger t into
// (page, offset) token positives with soft-target weights; UNK labels and
// labels equal to the trigger line (prefetching the line just accessed is
// useless) are dropped. A token named by several schemes keeps the largest
// weight.
func (p *Predictor) labelTokens(t int) (pagePos, offPos []int, pageW, offW []float32) {
	return p.labelTokensInto(t, nil, nil, nil, nil)
}

// labelTokensInto is labelTokens appending into caller-provided slices
// (pass them length-0 to reuse their backing arrays across triggers).
func (p *Predictor) labelTokensInto(t int, pagePos, offPos []int, pageW, offW []float32) ([]int, []int, []float32, []float32) {
	voc := p.Model.Vocab()
	trigger := p.lines[t]
	single := len(p.Cfg.Schemes) == 1
	for _, s := range p.Cfg.Schemes {
		line, ok := p.labels[t].Get(s)
		if !ok || line == trigger {
			continue
		}
		pTok, oTok := voc.EncodeAccess(trigger, line)
		if pTok == voc.UnkPage() {
			continue
		}
		w := schemeWeight(s, single)
		pagePos, pageW = addWeighted(pagePos, pageW, pTok, w)
		offPos, offW = addWeighted(offPos, offW, oTok, w)
	}
	return pagePos, offPos, pageW, offW
}

// growIntRows / growF32Rows extend a row-slice table to at least n rows,
// keeping existing rows (and their backing arrays) for reuse.
func growIntRows(rows [][]int, n int) [][]int {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows
}

func growF32Rows(rows [][]float32, n int) [][]float32 {
	for len(rows) < n {
		rows = append(rows, nil)
	}
	return rows
}

func addWeighted(toks []int, ws []float32, tok int, w float32) ([]int, []float32) {
	for i, x := range toks {
		if x == tok {
			if w > ws[i] {
				ws[i] = w
			}
			return toks, ws
		}
	}
	return append(toks, tok), append(ws, w)
}

// trainRange trains on accesses [start, end) in order, returning the mean
// batch loss.
func (p *Predictor) trainRange(start, end int, opt *nn.Adam) float32 {
	obs := p.Model.obs
	var positions []int
	var total float64
	batches := 0
	mainTk := p.Model.spans.main
	flush := func() {
		if len(positions) == 0 {
			return
		}
		stepT := metrics.StartTimer(obs.stepSec)
		buildSp := mainTk.Begin("build_batch")
		seqs := p.buildBatch(positions)
		nb := len(positions)
		p.pagePosBuf = growIntRows(p.pagePosBuf, nb)
		p.offPosBuf = growIntRows(p.offPosBuf, nb)
		p.pageWBuf = growF32Rows(p.pageWBuf, nb)
		p.offWBuf = growF32Rows(p.offWBuf, nb)
		pagePos, offPos := p.pagePosBuf[:nb], p.offPosBuf[:nb]
		pageW, offW := p.pageWBuf[:nb], p.offWBuf[:nb]
		for b, pos := range positions {
			pagePos[b], offPos[b], pageW[b], offW[b] = p.labelTokensInto(
				pos, pagePos[b][:0], offPos[b][:0], pageW[b][:0], offW[b][:0])
		}
		buildSp.End()
		batchSp := mainTk.Begin("train_batch")
		loss := p.Model.TrainBatch(seqs, pagePos, offPos, pageW, offW)
		batchSp.End()
		optT := metrics.StartTimer(obs.optSec)
		optSp := mainTk.Begin("optimizer")
		opt.Step(p.Model.Params().All())
		optSp.End()
		optT.Stop()
		if d := stepT.Stop(); d > 0 {
			obs.tokensPerSec.Set(float64(len(positions)*p.Cfg.SeqLen) / d.Seconds())
		}
		total += float64(loss)
		batches++
		p.numTrained += len(positions)
		positions = positions[:0]
	}
	for t := start; t < end; t++ {
		p.scanPage, p.scanOff, p.scanPageW, p.scanOffW = p.labelTokensInto(
			t, p.scanPage[:0], p.scanOff[:0], p.scanPageW[:0], p.scanOffW[:0])
		if len(p.scanPage) == 0 {
			continue // nothing learnable at this position
		}
		positions = append(positions, t)
		if len(positions) == p.Cfg.BatchSize {
			flush()
		}
	}
	flush()
	if batches == 0 {
		return 0
	}
	return float32(total / float64(batches))
}

// predictRange fills preds for accesses [start, end): the prediction made
// *at* access t (for prefetching after t).
func (p *Predictor) predictRange(start, end int) {
	voc := p.Model.Vocab()
	prov := p.Cfg.Provenance
	mainTk := p.Model.spans.main
	// seen and positions are reused across the whole range: at degree 8 a
	// fresh map per access dominated the allocation profile of degree sweeps.
	seen := make(map[uint64]struct{}, 2*p.Cfg.Degree)
	positions := make([]int, 0, p.Cfg.BatchSize)
	for t := start; t < end; t += p.Cfg.BatchSize {
		hi := t + p.Cfg.BatchSize
		if hi > end {
			hi = end
		}
		positions = positions[:0]
		for i := t; i < hi; i++ {
			positions = append(positions, i)
		}
		batchSp := mainTk.Begin("predict_batch")
		seqs := p.buildBatch(positions)
		cands := p.Model.PredictBatch(seqs, p.Cfg.Degree)
		p.Model.obs.predictBatches.Inc()
		for b, pos := range positions {
			var out []uint64
			clear(seen)
			for _, c := range cands[b] {
				line, ok := voc.Decode(p.lines[pos], c.PageTok, c.OffTok)
				if !ok {
					continue
				}
				if _, dup := seen[line]; dup {
					continue
				}
				seen[line] = struct{}{}
				if prov != nil {
					prov.Add(tracing.Decision{
						Index:   pos,
						Rank:    len(out),
						PC:      p.pcs[pos],
						PageTok: c.PageTok,
						OffTok:  c.OffTok,
						Line:    line,
						Schemes: p.schemeMask(pos, line),
					})
				}
				out = append(out, line<<trace.LineBits)
			}
			p.preds[pos] = out
		}
		batchSp.End()
	}
}

// Predictions returns the per-access prefetch predictions (line-aligned
// byte addresses). Accesses in the first epoch have no predictions.
func (p *Predictor) Predictions() [][]uint64 { return p.preds }

// EpochLosses returns the mean training loss per epoch.
func (p *Predictor) EpochLosses() []float32 { return p.epochLoss }

// TrainedSamples returns the number of training samples consumed.
func (p *Predictor) TrainedSamples() int { return p.numTrained }

// AsPrefetcher adapts the predictor for the simulator.
func (p *Predictor) AsPrefetcher() *prefetch.Precomputed {
	return &prefetch.Precomputed{Label: "voyager", Predictions: p.preds}
}

// RepredictAll recomputes predictions for every access with the final
// model (used after offline compression to measure accuracy deltas; the
// online protocol itself never does this).
func (p *Predictor) RepredictAll() {
	p.predictRange(0, len(p.preds))
}
