package vocab

import "voyager/internal/trace"

// Tok is one encoded access: the (pc, page, offset) token triple.
type Tok struct {
	PC, Page, Off int32
}

// Stream encodes one access stream online and keeps its most recent
// triples in a ring. It is the single owner of the stream contract every
// predictor path shares — the trainer's pre-encoded trace, the distilled
// replayer, and the serving sessions:
//
//   - each access encodes against the line of the access before it, and
//     the first access encodes against its own line;
//   - until the ring has filled, it is back-filled with the first triple,
//     the online form of WindowAt's clamp (a history index below 0 reads
//     access 0).
type Stream struct {
	voc  *Vocab
	ring []Tok
	head int // index of the most recent triple (the trigger)
	line uint64
	seen bool
}

// NewStream returns a stream that keeps the last capacity triples (at
// least 1).
func (v *Vocab) NewStream(capacity int) Stream {
	if capacity < 1 {
		capacity = 1
	}
	return Stream{voc: v, ring: make([]Tok, capacity)}
}

// Advance encodes one access, rolls it into the ring, and returns its
// triple.
//
//hot:path
func (s *Stream) Advance(pc, addr uint64) Tok {
	line := trace.Line(addr)
	if !s.seen {
		s.line = line
	}
	pTok, oTok := s.voc.EncodeAccess(s.line, line)
	s.line = line
	t := Tok{PC: int32(s.voc.PCToken(pc)), Page: int32(pTok), Off: int32(oTok)}
	if !s.seen {
		for i := range s.ring {
			s.ring[i] = t
		}
		s.head, s.seen = 0, true
		return t
	}
	s.head++
	if s.head == len(s.ring) {
		s.head = 0
	}
	s.ring[s.head] = t
	return t
}

// Window copies the last len(dst) triples into dst, oldest first, so the
// trigger lands in dst[len(dst)-1]. len(dst) must not exceed the capacity.
//
//hot:path
func (s *Stream) Window(dst []Tok) {
	j := s.head - len(dst) + 1
	if j < 0 {
		j += len(s.ring)
	}
	for i := range dst {
		dst[i] = s.ring[j]
		if j++; j == len(s.ring) {
			j = 0
		}
	}
}

// Line returns the trigger's cache line: the line of the last access
// advanced (0 before the first).
func (s *Stream) Line() uint64 { return s.line }

// WindowAt is the offline form of Stream.Window over a pre-encoded trace:
// it copies the len(dst) triples ending at access t into dst, oldest first,
// with history indices below 0 clamped to access 0.
func WindowAt(toks []Tok, t int, dst []Tok) {
	for i := range dst {
		j := t - len(dst) + 1 + i
		if j < 0 {
			j = 0
		}
		dst[i] = toks[j]
	}
}
