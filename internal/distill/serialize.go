package distill

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// On-disk format (all little-endian):
//
//	magic    uint32  "VYDT"
//	version  uint32
//	histLen, topK, log2Buckets, markovLog2, maxProbe, reserved uint32
//	vocabFP  uint64
//	main.keys    [1<<log2Buckets]uint64
//	main.slots   [(1<<log2Buckets)*topK]uint64
//	markov.keys  [1<<markovLog2]uint64
//	markov.slots [(1<<markovLog2)*topK]uint64
//	checksum uint64  (FNV-1a over every preceding byte)
//
// The payload is the table's flat arrays verbatim, 8-byte aligned after a
// fixed 40-byte header — a loader may mmap the file and slice the arrays in
// place. Builds are deterministic, so one (model, trace, params) triple
// always produces a byte-identical file.
const (
	// Magic is the file magic, "VYDT" read as a little-endian uint32.
	Magic uint32 = 'V' | 'Y'<<8 | 'D'<<16 | 'T'<<24
	// Version is the current format version; Load rejects any other.
	Version uint32 = 1

	// maxLog2 bounds header-declared table sizes. Load also reserves at
	// most preallocWords per array before the bytes arrive, so a corrupted
	// header on a short file cannot demand an absurd allocation before the
	// checksum fails.
	maxLog2 = 30
	maxTopK = 64
)

// fnvWriter hashes every byte it forwards (FNV-1a).
type fnvWriter struct {
	w io.Writer
	h uint64
	n int64
}

func (f *fnvWriter) Write(p []byte) (int, error) {
	for _, b := range p {
		f.h = (f.h ^ uint64(b)) * fnvPrime64
	}
	n, err := f.w.Write(p)
	f.n += int64(n)
	return n, err
}

// fnvReader hashes every byte it yields.
type fnvReader struct {
	r io.Reader
	h uint64
}

func (f *fnvReader) Read(p []byte) (int, error) {
	n, err := f.r.Read(p)
	for _, b := range p[:n] {
		f.h = (f.h ^ uint64(b)) * fnvPrime64
	}
	return n, err
}

const wordChunk = 4096 // words encoded per buffered write/read

func writeWords(w io.Writer, buf []byte, words []uint64) error {
	for len(words) > 0 {
		n := len(words)
		if n > wordChunk {
			n = wordChunk
		}
		for i, v := range words[:n] {
			binary.LittleEndian.PutUint64(buf[8*i:], v)
		}
		if _, err := w.Write(buf[:8*n]); err != nil {
			return err
		}
		words = words[n:]
	}
	return nil
}

// preallocWords caps the capacity readWords reserves up front: enough for a
// default-size table's largest array in one allocation, small enough that a
// header claiming 2^30 buckets costs at most 1 MiB before its bytes run out.
const preallocWords = 1 << 17

// readWords reads n words. Past preallocWords the result grows only as
// bytes arrive, so memory tracks the file rather than the count a header
// claims.
func readWords(r io.Reader, buf []byte, n int) ([]uint64, error) {
	words := make([]uint64, 0, min(n, preallocWords))
	for len(words) < n {
		k := min(n-len(words), wordChunk)
		if _, err := io.ReadFull(r, buf[:8*k]); err != nil {
			return nil, err
		}
		for i := 0; i < k; i++ {
			words = append(words, binary.LittleEndian.Uint64(buf[8*i:]))
		}
	}
	return words, nil
}

// WriteTo serializes the table in the versioned, checksummed format.
func (t *Table) WriteTo(w io.Writer) (int64, error) {
	fw := &fnvWriter{w: w, h: fnvOffset64}
	var hdr [40]byte
	le := binary.LittleEndian
	le.PutUint32(hdr[0:], Magic)
	le.PutUint32(hdr[4:], Version)
	le.PutUint32(hdr[8:], uint32(t.HistLen))
	le.PutUint32(hdr[12:], uint32(t.TopK))
	le.PutUint32(hdr[16:], uint32(t.Log2Buckets))
	le.PutUint32(hdr[20:], uint32(t.MarkovLog2))
	le.PutUint32(hdr[24:], uint32(t.MaxProbe))
	le.PutUint32(hdr[28:], 0) // reserved
	le.PutUint64(hdr[32:], t.VocabFP)
	if _, err := fw.Write(hdr[:]); err != nil {
		return fw.n, err
	}
	buf := make([]byte, 8*wordChunk)
	for _, words := range [][]uint64{t.main.keys, t.main.slots, t.markov.keys, t.markov.slots} {
		if err := writeWords(fw, buf, words); err != nil {
			return fw.n, err
		}
	}
	// The checksum trails the hashed region and is written to the raw
	// writer, not through the hasher.
	le.PutUint64(buf[:8], fw.h)
	n, err := w.Write(buf[:8])
	return fw.n + int64(n), err
}

// Load deserializes a table, verifying magic, version, header sanity and
// the trailing checksum.
func Load(r io.Reader) (*Table, error) {
	fr := &fnvReader{r: r, h: fnvOffset64}
	var hdr [40]byte
	if _, err := io.ReadFull(fr, hdr[:]); err != nil {
		return nil, fmt.Errorf("distill: short header: %w", err)
	}
	le := binary.LittleEndian
	if m := le.Uint32(hdr[0:]); m != Magic {
		return nil, fmt.Errorf("distill: bad magic %#x: not a distilled table file", m)
	}
	if v := le.Uint32(hdr[4:]); v != Version {
		return nil, fmt.Errorf("distill: version mismatch: file v%d, library v%d", v, Version)
	}
	prm := Params{
		HistLen:     int(le.Uint32(hdr[8:])),
		TopK:        int(le.Uint32(hdr[12:])),
		Log2Buckets: int(le.Uint32(hdr[16:])),
		MarkovLog2:  int(le.Uint32(hdr[20:])),
		MaxProbe:    int(le.Uint32(hdr[24:])),
	}
	switch {
	case prm.HistLen <= 0 || prm.HistLen > 1<<16,
		prm.TopK <= 0 || prm.TopK > maxTopK,
		prm.Log2Buckets <= 0 || prm.Log2Buckets > maxLog2,
		prm.MarkovLog2 <= 0 || prm.MarkovLog2 > maxLog2,
		prm.MaxProbe <= 0 || prm.MaxProbe > 1<<16:
		return nil, fmt.Errorf("distill: corrupt header: params %+v out of range", prm)
	}
	t := &Table{Params: prm, VocabFP: le.Uint64(hdr[32:])}
	t.main = &subtable{log2: prm.Log2Buckets, topK: prm.TopK, maxProbe: prm.MaxProbe}
	t.markov = &subtable{log2: prm.MarkovLog2, topK: prm.TopK, maxProbe: prm.MaxProbe}
	buf := make([]byte, 8*wordChunk)
	for _, st := range []*subtable{t.main, t.markov} {
		var err error
		n := 1 << st.log2
		if st.keys, err = readWords(fr, buf, n); err == nil {
			st.slots, err = readWords(fr, buf, n*st.topK)
		}
		if err != nil {
			return nil, fmt.Errorf("distill: short payload: %w", err)
		}
	}
	sum := fr.h
	if _, err := io.ReadFull(r, buf[:8]); err != nil {
		return nil, fmt.Errorf("distill: missing checksum: %w", err)
	}
	if got := le.Uint64(buf[:8]); got != sum {
		return nil, fmt.Errorf("distill: checksum mismatch (file %#x, computed %#x): file corrupted", got, sum)
	}
	return t, nil
}

// Save writes the table to path (buffered; created with 0644).
func (t *Table) Save(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if _, err := t.WriteTo(bw); err != nil {
		_ = f.Close() // already failing: the write error wins
		return fmt.Errorf("distill: save %s: %w", path, err)
	}
	if err := bw.Flush(); err != nil {
		_ = f.Close() // already failing: the flush error wins
		return fmt.Errorf("distill: save %s: %w", path, err)
	}
	return f.Close()
}

// LoadFile reads a table from path.
func LoadFile(path string) (*Table, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer func() { _ = f.Close() }() // read-side close: Load already has the bytes
	t, err := Load(bufio.NewReader(f))
	if err != nil {
		return nil, fmt.Errorf("distill: load %s: %w", path, err)
	}
	return t, nil
}
