package distill

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"voyager/internal/trace"
	"voyager/internal/vocab"
	"voyager/internal/voyager"
)

// cyclicTrace drives a deterministic irregular cycle through several PCs —
// enough structure for a FastConfig teacher to learn and for the distilled
// table to reproduce.
func cyclicTrace(laps int) *trace.Trace {
	cycle := []uint64{
		0x10<<6 | 5, 0x22<<6 | 61, 0x15<<6 | 0, 0x9<<6 | 33,
		0x30<<6 | 7, 0x11<<6 | 12, 0x28<<6 | 50, 0x3<<6 | 18,
	}
	tr := &trace.Trace{Name: "cycle"}
	inst := uint64(0)
	for l := 0; l < laps; l++ {
		for i, line := range cycle {
			inst += 5
			tr.Append(0x400000+uint64(i%3)*8, line<<trace.LineBits, inst)
		}
	}
	tr.Instructions = inst
	return tr
}

// trainedPredictor returns the fixed-seed teacher trained on
// cyclicTrace(500), trained once per test binary: compiling and agreement
// only read it (tests run sequentially, so its batch scratch is not
// shared across goroutines).
func trainedPredictor(t *testing.T) *voyager.Predictor {
	t.Helper()
	teacher.once.Do(func() {
		cfg := voyager.FastConfig()
		cfg.EpochAccesses = 1000
		teacher.p, teacher.err = voyager.Train(cyclicTrace(500), cfg) // 4000 accesses
	})
	if teacher.err != nil {
		t.Fatalf("Train: %v", teacher.err)
	}
	return teacher.p
}

var teacher struct {
	once sync.Once
	p    *voyager.Predictor
	err  error
}

func testParams() Params {
	return Params{HistLen: 3, TopK: 4, Log2Buckets: 10, MarkovLog2: 8, MaxProbe: 16}
}

func TestPackSlotRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		page, off int32
		prob      float32
	}{{0, 0, 0.5}, {123, 64, 0.25}, {1 << 20, 190, 1}, {7, 3, 1e-9}} {
		s := packSlot(tc.page, tc.off, tc.prob)
		if s == 0 {
			t.Fatalf("packSlot(%+v) produced the empty marker", tc)
		}
		pg, off, prob := DecodeSlot(s)
		if pg != int(tc.page) || off != int(tc.off) {
			t.Fatalf("DecodeSlot: got (%d,%d), want (%d,%d)", pg, off, tc.page, tc.off)
		}
		if tc.prob >= 1e-4 && (prob < tc.prob*0.99 || prob > tc.prob*1.01) {
			t.Fatalf("prob %g round-tripped to %g", tc.prob, prob)
		}
	}
}

func TestKeysNeverZero(t *testing.T) {
	if ContextKey([]vocab.Tok{{}}) == 0 || pairKey(0, 0) == 0 {
		t.Fatalf("zero-valued key would collide with the empty-bucket marker")
	}
	if ContextKey([]vocab.Tok{{PC: 1}}) == ContextKey([]vocab.Tok{{PC: 2}}) {
		t.Fatalf("PC token does not perturb the context key")
	}
	if ContextKey([]vocab.Tok{{PC: 1}, {PC: 2}}) != ContextKey([]vocab.Tok{{PC: 3}, {PC: 2}}) {
		t.Fatalf("a history PC token perturbs the context key; only the trigger's may")
	}
	h := []vocab.Tok{{Page: 1, Off: 2}, {PC: 1, Page: 3, Off: 4}}
	if ContextKey(h) == ContextKey([]vocab.Tok{{Page: 3, Off: 4}, {PC: 1, Page: 1, Off: 2}}) {
		t.Fatalf("history order does not perturb the context key")
	}
}

// KeyAt must clamp history at the trace start exactly like the online
// replayer, which back-fills its ring with the first triple.
func TestKeyAtClampsAtStart(t *testing.T) {
	p := trainedPredictor(t)
	first := p.Tokens()[0]
	want := ContextKey([]vocab.Tok{first, first, first})
	if got := KeyAt(p, 0, 3); got != want {
		t.Fatalf("KeyAt(0) = %#x, want clamped %#x", got, want)
	}
}

func TestCompileLookupTiers(t *testing.T) {
	p := trainedPredictor(t)
	tab := Compile(p, 0, p.NumAccesses(), testParams())

	st := tab.Stats()
	if st.Keys == 0 || st.MarkovKeys == 0 {
		t.Fatalf("empty table after compiling a full trace: %+v", st)
	}
	if st.Bytes != tab.Bytes() || st.Bytes == 0 {
		t.Fatalf("bytes accounting: %+v vs %d", st, tab.Bytes())
	}

	// A calibration trigger must hit the full-context tier.
	pos := p.NumAccesses() / 2
	win := make([]vocab.Tok, tab.HistLen)
	vocab.WindowAt(p.Tokens(), pos, win)
	slots, tier := tab.Lookup(win)
	if tier != TierKey || len(slots) == 0 || slots[0] == 0 {
		t.Fatalf("calibration trigger: tier %v, slots %v", tier, slots)
	}

	// An unseen context with a seen trigger pair falls back to Markov.
	trig := win[len(win)-1]
	unseen := []vocab.Tok{{Page: 9999, Off: 1}, {PC: 12345, Page: trig.Page, Off: trig.Off}}
	if _, tier = tab.Lookup(unseen); tier != TierMarkov {
		t.Fatalf("unseen context, seen trigger: tier %v, want TierMarkov", tier)
	}

	// Garbage on both levels misses.
	if _, tier = tab.Lookup([]vocab.Tok{{PC: 12345, Page: 31337, Off: 99}}); tier != TierMiss {
		t.Fatalf("garbage lookup: tier %v, want TierMiss", tier)
	}
}

// Candidates owns the slot decode: it skips the trigger line and a second
// slot that decodes to an already-emitted address, caps at degree, tells
// the tiers apart, and answers next-line with tokens -1 on a full miss.
// The table is built by hand so every case is exact.
func TestCandidatesDecode(t *testing.T) {
	tr := &trace.Trace{Name: "decode"}
	for i, l := range []uint64{10, 20, 999, 10, 20} {
		tr.Append(100, l<<trace.LineBits, uint64(i+1))
	}
	voc := vocab.Build(tr, vocab.DefaultOptions())
	// Lines 10 and 20 share absolute page token 0; line 999 is page delta
	// 15 (token 1) with offset delta +19 from line 20.
	win := []vocab.Tok{{PC: int32(voc.PCToken(100)), Page: 0, Off: 20}}
	dOff := func(d int) int32 { return int32(vocab.NumAbsOffsets + d + trace.NumOffsets - 1) }
	prm := Params{HistLen: 1, TopK: 4, Log2Buckets: 3, MarkovLog2: 2, MaxProbe: 4}
	tab := &Table{Params: prm, VocabFP: voc.Fingerprint()}
	tab.main = newSubtable(prm.Log2Buckets, prm.TopK, prm.MaxProbe)
	tab.markov = newSubtable(prm.MarkovLog2, prm.TopK, prm.MaxProbe)
	ctx, _ := keys(win)
	tab.main.insert(ctx, 1, []uint64{
		packSlot(0, 20, 0.4),        // line 20: the trigger itself
		packSlot(0, 10, 0.3),        // line 10
		packSlot(0, dOff(-10), 0.2), // line 10 again, via an offset delta
		packSlot(1, dOff(19), 0.1),  // line 999
	}, make([]float32, 8))

	cands, tier := tab.Candidates(win, 20, voc, 4, nil)
	want := []Candidate{{PageTok: 0, OffTok: 10, Addr: 10 << trace.LineBits},
		{PageTok: 1, OffTok: dOff(19), Addr: 999 << trace.LineBits}}
	if tier != TierKey || !slices.Equal(cands, want) {
		t.Fatalf("context hit: tier %v, candidates %+v, want %+v", tier, cands, want)
	}
	if cands, _ = tab.Candidates(win, 20, voc, 1, cands); !slices.Equal(cands, want[:1]) {
		t.Fatalf("degree 1: candidates %+v, want %+v", cands, want[:1])
	}
	miss := []vocab.Tok{{PC: 7, Page: 0, Off: 11}}
	cands, tier = tab.Candidates(miss, 41, voc, 2, nil)
	next := Candidate{PageTok: -1, OffTok: -1, Addr: 42 << trace.LineBits}
	if tier != TierMiss || len(cands) != 1 || cands[0] != next {
		t.Fatalf("full miss: tier %v, candidates %+v, want next-line %+v", tier, cands, next)
	}
}

// The fast tier's steady state — Stream.Advance, Stream.Window, and
// Table.Candidates with warm scratch — allocates nothing (the //hot:path
// contract the hotalloc analyzer checks line by line).
func TestCandidatesAllocFree(t *testing.T) {
	p := trainedPredictor(t)
	tab := Compile(p, 0, p.NumAccesses(), testParams())
	tr := cyclicTrace(500)
	voc := p.Model.Vocab()
	const degree = 2
	st := voc.NewStream(tab.HistLen)
	win := make([]vocab.Tok, tab.HistLen)
	dst := make([]Candidate, 0, degree)
	i := 0
	step := func() {
		a := tr.Accesses[i%tr.Len()]
		st.Advance(a.PC, a.Addr)
		st.Window(win)
		dst, _ = tab.Candidates(win, st.Line(), voc, degree, dst)
		i++
	}
	for i < 64 {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Fatalf("fast-tier steady state allocates %v per access, want 0", n)
	}
}

// The teacher learned a deterministic cycle, so the table distilled from
// the first half must agree with the live model almost everywhere on the
// held-out second half.
func TestHeldOutAgreement(t *testing.T) {
	p := trainedPredictor(t)
	n := p.NumAccesses()
	tab := Compile(p, 0, n/2, testParams())
	held := make([]int, 0, n-n/2)
	for i := n / 2; i < n; i++ {
		held = append(held, i)
	}
	if a := Agreement(p, tab, held); a < 0.9 {
		t.Fatalf("held-out top-1 agreement %.3f, want ≥0.9", a)
	}
	if a := Agreement(p, tab, nil); a != 0 {
		t.Fatalf("Agreement over no positions = %v, want 0", a)
	}
}

// Tiny tables must stay functional under probe-window pressure: the
// deterministic weight-priority eviction keeps the heaviest keys.
func TestCompileTinyTable(t *testing.T) {
	p := trainedPredictor(t)
	prm := Params{HistLen: 2, TopK: 2, Log2Buckets: 3, MarkovLog2: 3, MaxProbe: 4}
	tab := Compile(p, 0, p.NumAccesses(), prm)
	st := tab.Stats()
	if st.Keys == 0 || st.Keys > 8 || st.MarkovKeys == 0 {
		t.Fatalf("tiny table occupancy: %+v", st)
	}
}

// Same model + params ⇒ the same table, byte for byte (deterministic maps,
// sorted insertion, deterministic eviction).
func TestCompileDeterministic(t *testing.T) {
	p := trainedPredictor(t)
	var b1, b2 bytes.Buffer
	if _, err := Compile(p, 0, p.NumAccesses(), testParams()).WriteTo(&b1); err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(p, 0, p.NumAccesses(), testParams()).WriteTo(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatalf("two compiles of the same model differ (%d vs %d bytes)", b1.Len(), b2.Len())
	}
}

func TestParamsWithDefaults(t *testing.T) {
	d := Params{}.withDefaults()
	if d != DefaultParams() {
		t.Fatalf("zero params defaulted to %+v", d)
	}
	keep := Params{HistLen: 1, TopK: 2, Log2Buckets: 5, MarkovLog2: 4, MaxProbe: 3}
	if got := keep.withDefaults(); got != keep {
		t.Fatalf("explicit params overwritten: %+v", got)
	}
}

func TestTierString(t *testing.T) {
	if TierKey.String() != "context" || TierMarkov.String() != "markov" || TierMiss.String() != "miss" {
		t.Fatalf("tier names: %v %v %v", TierKey, TierMarkov, TierMiss)
	}
}
