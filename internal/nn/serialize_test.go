package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func buildSet(rng *rand.Rand) *ParamSet {
	var s ParamSet
	a := NewParam("layer.w", 3, 4)
	a.W.Uniform(rng, 1)
	b := NewParam("layer.b", 1, 4)
	b.W.Uniform(rng, 1)
	e := NewSparseParam("emb", 10, 2)
	e.W.Uniform(rng, 1)
	s.Add(a, b, e)
	return &s
}

func TestWeightsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := buildSet(rng)
	var buf bytes.Buffer
	wn, err := src.WriteTo(&buf)
	if err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	size := int64(buf.Len())
	if wn != size {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", wn, size)
	}
	dst := buildSet(rand.New(rand.NewSource(99))) // different init
	rn, err := dst.ReadFrom(&buf)
	if err != nil {
		t.Fatalf("ReadFrom: %v", err)
	}
	if rn != size {
		t.Fatalf("ReadFrom reported %d bytes, file has %d", rn, size)
	}
	for i, p := range src.All() {
		q := dst.All()[i]
		for j := range p.W.Data {
			if p.W.Data[j] != q.W.Data[j] {
				t.Fatalf("param %s elem %d mismatch", p.Name, j)
			}
		}
	}
}

func TestReadFromRejectsBadInput(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	s := buildSet(rng)
	if _, err := s.ReadFrom(bytes.NewReader([]byte("nope"))); err == nil {
		t.Fatalf("bad magic accepted")
	}

	// Unknown parameter name.
	var other ParamSet
	p := NewParam("mystery", 1, 1)
	other.Add(p)
	var buf bytes.Buffer
	other.WriteTo(&buf)
	if _, err := s.ReadFrom(&buf); err == nil {
		t.Fatalf("unknown parameter accepted")
	}

	// Shape mismatch.
	var shaped ParamSet
	shaped.Add(NewParam("layer.w", 2, 2))
	buf.Reset()
	shaped.WriteTo(&buf)
	if _, err := s.ReadFrom(&buf); err == nil {
		t.Fatalf("shape mismatch accepted")
	}

	// Truncated data.
	buf.Reset()
	s.WriteTo(&buf)
	trunc := buf.Bytes()[:buf.Len()-8]
	if _, err := s.ReadFrom(bytes.NewReader(trunc)); err == nil {
		t.Fatalf("truncated file accepted")
	}
}

// A file that covers only some of the set's parameters must not load: the
// rest would silently keep their initial weights.
func TestReadFromRejectsMissingParam(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	full := buildSet(rng)
	var subset ParamSet
	subset.Add(full.All()[:2]...) // layer.w, layer.b; no emb
	var buf bytes.Buffer
	if _, err := subset.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := full.ReadFrom(&buf)
	if err == nil || !strings.Contains(err.Error(), `"emb"`) {
		t.Fatalf("subset file: err = %v, want one naming the missing \"emb\"", err)
	}
}

// A file that names one parameter twice must not load, even when the count
// matches the set's size.
func TestReadFromRejectsDuplicateParam(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	full := buildSet(rng)
	var dup ParamSet
	w := full.All()[0]
	dup.Add(w, w, full.All()[1])
	var buf bytes.Buffer
	if _, err := dup.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	_, err := full.ReadFrom(&buf)
	if err == nil || !strings.Contains(err.Error(), `"layer.w"`) {
		t.Fatalf("duplicate file: err = %v, want one naming \"layer.w\"", err)
	}
}

// FuzzLoadWeights feeds arbitrary bytes to ParamSet.ReadFrom, which reads
// operator-supplied weight files. It must never panic; a file it accepts
// must set every parameter, report a byte count within the input, and
// survive a write/read round trip bit for bit.
func FuzzLoadWeights(f *testing.F) {
	var valid bytes.Buffer
	if _, err := buildSet(rand.New(rand.NewSource(5))).WriteTo(&valid); err != nil {
		f.Fatal(err)
	}
	v := valid.Bytes()
	f.Add(v)
	f.Add(v[:len(v)-5]) // truncated data
	f.Add(append([]byte("VNN0"), v[4:]...))
	huge := append([]byte(nil), v...)
	binary.LittleEndian.PutUint32(huge[4:], math.MaxUint32) // oversized count
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := buildSet(rand.New(rand.NewSource(6)))
		n, err := s.ReadFrom(bytes.NewReader(data))
		if err != nil {
			return
		}
		if n < 0 || n > int64(len(data)) {
			t.Fatalf("ReadFrom reported %d bytes of a %d-byte input", n, len(data))
		}
		var out bytes.Buffer
		if _, err := s.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		if int64(out.Len()) != n {
			t.Fatalf("re-encoded file is %d bytes, accepted file was %d", out.Len(), n)
		}
		back := buildSet(rand.New(rand.NewSource(7)))
		if _, err := back.ReadFrom(&out); err != nil {
			t.Fatalf("re-reading an accepted file: %v", err)
		}
		for i, p := range s.All() {
			for j, w := range p.W.Data {
				if math.Float32bits(w) != math.Float32bits(back.All()[i].W.Data[j]) {
					t.Fatalf("%s[%d] changed across a round trip", p.Name, j)
				}
			}
		}
	})
}
