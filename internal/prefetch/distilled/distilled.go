// Package distilled replays a tabularized Voyager (internal/distill)
// online: each access advances a vocab.Stream and hands its window to
// distill.Table.Candidates — no neural forward pass, so a prediction costs
// a few hash folds and at most 2·MaxProbe array reads (hundreds of
// nanoseconds instead of a full LSTM inference). The stream owns the
// encoding and the warmup back-fill, the table owns the slot decode; the
// serving daemon's fast tier calls the same two, so it answers exactly
// what this replayer answers.
package distilled

import (
	"fmt"

	"voyager/internal/distill"
	"voyager/internal/trace"
	"voyager/internal/vocab"
)

// Prefetcher binds a distilled table to a vocabulary and replays it over an
// access stream behind the standard prefetch.Prefetcher interface.
type Prefetcher struct {
	tab    *distill.Table
	voc    *vocab.Vocab
	degree int

	stream vocab.Stream
	win    []vocab.Tok // context window scratch, HistLen triples

	tiers [distill.NumTiers]int
	out   []distill.Candidate // candidate scratch; callers get fresh addresses
}

// New binds a table to the vocabulary of the trace it will replay. The
// vocabulary must be the one the table was compiled against (checked via
// the embedded fingerprint — token ids are meaningless across
// vocabularies).
func New(tab *distill.Table, voc *vocab.Vocab, degree int) (*Prefetcher, error) {
	if got, want := voc.Fingerprint(), tab.VocabFP; got != want {
		return nil, fmt.Errorf(
			"distilled: table compiled against a different vocabulary (fingerprint %#x, trace's %#x): recompile the table or replay the original trace",
			want, got)
	}
	if degree < 1 {
		degree = 1
	}
	return &Prefetcher{
		tab:    tab,
		voc:    voc,
		degree: degree,
		stream: voc.NewStream(tab.HistLen),
		win:    make([]vocab.Tok, tab.HistLen),
		out:    make([]distill.Candidate, 0, degree),
	}, nil
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "distilled" }

// Reset clears the context window (tier counters persist) so the
// prefetcher can replay another pass over the same trace.
func (p *Prefetcher) Reset() {
	p.stream = p.voc.NewStream(p.tab.HistLen)
}

// TierCounts returns how many accesses were answered by each fallback
// tier (indexed by distill.Tier) since construction.
func (p *Prefetcher) TierCounts() [distill.NumTiers]int { return p.tiers }

// Access implements prefetch.Prefetcher: advance the stream and answer
// from the table (distill.Table.Candidates: the fallback chain, the decode,
// and the next-line degradation on a full miss).
func (p *Prefetcher) Access(_ int, a trace.Access) []uint64 {
	p.stream.Advance(a.PC, a.Addr)
	p.stream.Window(p.win)
	var tier distill.Tier
	p.out, tier = p.tab.Candidates(p.win, p.stream.Line(), p.voc, p.degree, p.out)
	p.tiers[tier]++
	if len(p.out) == 0 {
		return nil
	}
	// The simulator and eval pipeline retain returned slices; hand out a
	// fresh copy and keep the scratch for the next access.
	res := make([]uint64, len(p.out))
	for i, c := range p.out {
		res[i] = c.Addr
	}
	return res
}
