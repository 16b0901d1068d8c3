package vocab

import (
	"encoding/binary"
	"testing"

	"voyager/internal/trace"
)

// streamRecord is one fuzz access: 16 little-endian bytes, pc then addr.
const streamRecord = 16

func streamInput(accs ...[2]uint64) []byte {
	b := make([]byte, 0, len(accs)*streamRecord)
	for _, a := range accs {
		b = binary.LittleEndian.AppendUint64(b, a[0])
		b = binary.LittleEndian.AppendUint64(b, a[1])
	}
	return b
}

// FuzzStreamMatchesWindowAt is the stream contract as a property: for any
// (pc, addr) sequence and ring capacity, after every Advance the online
// window equals WindowAt over the pre-encoded prefix, at every window
// length up to the capacity. The prefix is encoded here straight from the
// rule (each access against the previous line, the first against its own),
// not through Stream. Serving sessions advance on untrusted client pc/addr
// values, so arbitrary inputs must not panic either.
func FuzzStreamMatchesWindowAt(f *testing.F) {
	f.Add(streamInput([2]uint64{0x400000, 0x1000}), uint8(1))
	f.Add(streamInput([2]uint64{1, 0x40}, [2]uint64{2, 0x80}, [2]uint64{1, 0x40}), uint8(8))
	f.Add(streamInput([2]uint64{7, 10 << 6}, [2]uint64{7, 20 << 6}, [2]uint64{8, 999 << 6},
		[2]uint64{7, 10 << 6}, [2]uint64{7, 20 << 6}, [2]uint64{9, 1 << 63}), uint8(3))
	f.Fuzz(func(t *testing.T, data []byte, capacity uint8) {
		tr := &trace.Trace{Name: "fuzz"}
		for i := 0; i+streamRecord <= len(data); i += streamRecord {
			tr.Append(binary.LittleEndian.Uint64(data[i:]), binary.LittleEndian.Uint64(data[i+8:]), uint64(i))
		}
		if tr.Len() == 0 {
			return
		}
		v := Build(tr, DefaultOptions())
		n := 1 + int(capacity%32)
		s := v.NewStream(n)
		toks := make([]Tok, 0, tr.Len())
		prev := trace.Line(tr.Accesses[0].Addr)
		got, want := make([]Tok, n), make([]Tok, n)
		for i, a := range tr.Accesses {
			line := trace.Line(a.Addr)
			pg, off := v.EncodeAccess(prev, line)
			prev = line
			toks = append(toks, Tok{PC: int32(v.PCToken(a.PC)), Page: int32(pg), Off: int32(off)})
			if tk := s.Advance(a.PC, a.Addr); tk != toks[i] {
				t.Fatalf("access %d: Advance = %+v, want %+v", i, tk, toks[i])
			}
			if s.Line() != line {
				t.Fatalf("access %d: Line = %#x, want %#x", i, s.Line(), line)
			}
			for w := 1; w <= n; w++ {
				s.Window(got[:w])
				WindowAt(toks, i, want[:w])
				for j := 0; j < w; j++ {
					if got[j] != want[j] {
						t.Fatalf("access %d, window %d/%d: slot %d = %+v, want %+v",
							i, w, n, j, got[j], want[j])
					}
				}
			}
		}
	})
}

// A fresh stream back-fills with the first triple, so its first window is
// the clamped window at access 0.
func TestStreamBackFillsFirstAccess(t *testing.T) {
	v := Build(mkTrace(10, 20, 10, 20), DefaultOptions())
	s := v.NewStream(3)
	first := s.Advance(100, 10<<trace.LineBits)
	win := make([]Tok, 3)
	s.Window(win)
	for i, tk := range win {
		if tk != first {
			t.Fatalf("slot %d = %+v, want back-filled %+v", i, tk, first)
		}
	}
	second := s.Advance(100, 20<<trace.LineBits)
	s.Window(win)
	if win[0] != first || win[1] != first || win[2] != second {
		t.Fatalf("window after two accesses = %+v", win)
	}
	if s.Line() != 20 {
		t.Fatalf("Line = %d, want 20", s.Line())
	}
}
