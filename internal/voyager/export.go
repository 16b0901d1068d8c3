package voyager

import "voyager/internal/vocab"

// Read-only accessors used by the distillation compiler (internal/distill):
// teacher-forced batched inference at arbitrary trigger positions plus the
// pre-encoded per-access tokens, without re-deriving the vocabulary encoding
// or touching the online-protocol prediction table.

// NumAccesses returns the number of accesses in the bound trace.
func (p *Predictor) NumAccesses() int { return len(p.lines) }

// Tokens returns the encoded (pc, page, offset) triple of every access, in
// trace order: the stream vocab.WindowAt reads offline. Read-only; it
// aliases the predictor's storage.
func (p *Predictor) Tokens() []vocab.Tok { return p.tokens }

// LineAt returns the cache-line number of access i.
func (p *Predictor) LineAt(i int) uint64 { return p.lines[i] }

// PCAt returns the raw program counter of access i.
func (p *Predictor) PCAt(i int) uint64 { return p.pcs[i] }

// PredictAt runs one inference batch over the given trigger positions and
// returns, per position, the model's top-degree (page, offset) candidates.
// Unlike predictRange it never writes the prediction table or provenance
// log: it is the read-only teacher query for distillation and agreement
// measurement. Rows are freshly allocated; positions is only read.
func (p *Predictor) PredictAt(positions []int, degree int) [][]Candidate {
	if len(positions) == 0 {
		return nil
	}
	return p.Model.PredictBatch(p.buildBatch(positions), degree)
}

// VocabOptions exposes the vocabulary options this config implies, so tools
// that load a distilled table can rebuild the exact training vocabulary from
// the same trace (construction is deterministic; the table's embedded
// fingerprint verifies the match).
func (c Config) VocabOptions() vocab.Options { return c.vocabOptions() }

// Config returns the configuration the model was built with (for servers
// that need SeqLen/Degree without re-plumbing the construction config).
func (m *Model) Config() Config { return m.cfg }

// TokenBatch assembles token sequences for PredictTokenBatch without a bound
// trace — the serving-side equivalent of Predictor.buildBatch, fed from
// per-stream session rings instead of a pre-encoded trace. Row storage is
// reused across Reset cycles, so a long-running server's steady state
// allocates nothing here. Not safe for concurrent use; the serving batcher
// owns exactly one.
type TokenBatch struct {
	seqLen int
	seqs   []batchToken
	rows   int
}

// NewTokenBatch returns an assembler for sequences of the given length
// (the model's Config().SeqLen).
func NewTokenBatch(seqLen int) *TokenBatch {
	b := &TokenBatch{seqLen: seqLen, seqs: make([]batchToken, seqLen)}
	return b
}

// Reset clears the batch for reuse, keeping row storage.
func (b *TokenBatch) Reset() { b.rows = 0 }

// Rows returns the number of rows added since the last Reset.
func (b *TokenBatch) Rows() int { return b.rows }

// Add appends one row: the (pc, page, offset) triples of the stream's
// seqLen most recent accesses, oldest first (a vocab.Stream window).
func (b *TokenBatch) Add(row []vocab.Tok) {
	if len(row) != b.seqLen {
		panic("voyager: TokenBatch.Add row length != seqLen")
	}
	r := b.rows
	for s, t := range row {
		tok := &b.seqs[s]
		if r < len(tok.pc) {
			tok.pc[r], tok.page[r], tok.off[r] = int(t.PC), int(t.Page), int(t.Off)
		} else {
			tok.pc = append(tok.pc, int(t.PC))
			tok.page = append(tok.page, int(t.Page))
			tok.off = append(tok.off, int(t.Off))
		}
	}
	b.rows = r + 1
}

// PredictTokenBatch runs one inference batch over externally-assembled token
// rows and returns, per row, the model's top-degree candidates. The forward
// pass is row-independent at inference (no dropout, per-row top-k, fixed
// summation order), so each row's candidates are bit-identical to the same
// tokens run through PredictAt in any other batch composition — the property
// the serving-path golden differential pins. Must be called from a single
// goroutine at a time (the serving batcher), like every PredictBatch entry.
func (m *Model) PredictTokenBatch(b *TokenBatch, degree int) [][]Candidate {
	if b.rows == 0 {
		return nil
	}
	seqs := make([]batchToken, b.seqLen)
	for s := range seqs {
		seqs[s].pc = b.seqs[s].pc[:b.rows]
		seqs[s].page = b.seqs[s].page[:b.rows]
		seqs[s].off = b.seqs[s].off[:b.rows]
	}
	return m.PredictBatch(seqs, degree)
}
