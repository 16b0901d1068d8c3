package distill

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

func compiledTable(t *testing.T) *Table {
	t.Helper()
	return Compile(trainedPredictor(t), 0, 4000, testParams())
}

func tableBytes(t *testing.T, tab *Table) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := tab.WriteTo(&b); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return b.Bytes()
}

func TestSaveLoadRoundTrip(t *testing.T) {
	tab := compiledTable(t)
	path := filepath.Join(t.TempDir(), "cycle.vydt")
	if err := tab.Save(path); err != nil {
		t.Fatalf("Save: %v", err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatalf("LoadFile: %v", err)
	}
	if got.Params != tab.Params || got.VocabFP != tab.VocabFP {
		t.Fatalf("header mismatch: %+v fp=%#x vs %+v fp=%#x",
			got.Params, got.VocabFP, tab.Params, tab.VocabFP)
	}
	if got.Stats() != tab.Stats() {
		t.Fatalf("stats mismatch: %+v vs %+v", got.Stats(), tab.Stats())
	}
	if !slices.Equal(got.main.keys, tab.main.keys) || !slices.Equal(got.main.slots, tab.main.slots) ||
		!slices.Equal(got.markov.keys, tab.markov.keys) || !slices.Equal(got.markov.slots, tab.markov.slots) {
		t.Fatalf("payload mismatch after round trip")
	}
}

// Golden byte-stability: one table serialized twice, and the same
// (seed, trace, params) compiled twice, must produce identical files.
func TestSerializationByteStable(t *testing.T) {
	tab := compiledTable(t)
	b1, b2 := tableBytes(t, tab), tableBytes(t, tab)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same table serialized twice differs")
	}
	dir := t.TempDir()
	p1, p2 := filepath.Join(dir, "a.vydt"), filepath.Join(dir, "b.vydt")
	if err := tab.Save(p1); err != nil {
		t.Fatal(err)
	}
	if err := tab.Save(p2); err != nil {
		t.Fatal(err)
	}
	f1, _ := os.ReadFile(p1)
	f2, _ := os.ReadFile(p2)
	if !bytes.Equal(f1, f2) || len(f1) == 0 {
		t.Fatalf("saved files differ (%d vs %d bytes)", len(f1), len(f2))
	}
	if !bytes.Equal(f1, b1) {
		t.Fatalf("Save output differs from WriteTo output")
	}
}

// goldenTableHash is the FNV-64a hash of the fixed-seed fixture's table
// file compiled with DefaultParams. It pins the table bytes across
// commits: a change to the context-key fold, the window clamp, the slot
// packing or the build order moves it.
const goldenTableHash = uint64(0x893b593d2dc99915)

func TestTableBytesGolden(t *testing.T) {
	tab := Compile(trainedPredictor(t), 0, 4000, DefaultParams())
	h := fnv.New64a()
	if _, err := tab.WriteTo(h); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	if got := h.Sum64(); got != goldenTableHash {
		t.Fatalf("table file hash %#x, want %#x (bit-identical)", got, goldenTableHash)
	}
}

func TestCorruptedChecksumRejected(t *testing.T) {
	raw := tableBytes(t, compiledTable(t))
	// Flip one payload byte mid-file: header still parses, checksum must not.
	bad := append([]byte(nil), raw...)
	bad[len(bad)/2] ^= 0xff
	if _, err := Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted payload: err = %v, want checksum mismatch", err)
	}
	// Flipping the trailing checksum itself is also a checksum failure.
	bad = append([]byte(nil), raw...)
	bad[len(bad)-1] ^= 0x01
	if _, err := Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("corrupted trailer: err = %v, want checksum mismatch", err)
	}
}

func TestVersionMismatchRejected(t *testing.T) {
	raw := tableBytes(t, compiledTable(t))
	bad := append([]byte(nil), raw...)
	binary.LittleEndian.PutUint32(bad[4:], Version+7)
	if _, err := Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "version mismatch") {
		t.Fatalf("future version: err = %v, want version mismatch", err)
	}
}

func TestBadMagicRejected(t *testing.T) {
	raw := tableBytes(t, compiledTable(t))
	bad := append([]byte(nil), raw...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "not a distilled table") {
		t.Fatalf("bad magic: err = %v", err)
	}
}

func TestCorruptHeaderParamsRejected(t *testing.T) {
	raw := tableBytes(t, compiledTable(t))
	bad := append([]byte(nil), raw...)
	// An absurd bucket count must be rejected before any allocation, even
	// though the checksum would catch it later.
	binary.LittleEndian.PutUint32(bad[16:], 31)
	if _, err := Load(bytes.NewReader(bad)); err == nil ||
		!strings.Contains(err.Error(), "corrupt header") {
		t.Fatalf("oversized header: err = %v", err)
	}
}

func TestTruncatedFileRejected(t *testing.T) {
	raw := tableBytes(t, compiledTable(t))
	for _, n := range []int{0, 10, 40, len(raw) / 2, len(raw) - 4} {
		if _, err := Load(bytes.NewReader(raw[:n])); err == nil {
			t.Fatalf("truncation at %d bytes accepted", n)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile(filepath.Join(t.TempDir(), "nope.vydt")); err == nil {
		t.Fatalf("missing file accepted")
	}
}

// fuzzSeedTable is a small hand-built table (no training) whose file seeds
// FuzzLoadTable.
func fuzzSeedTable() []byte {
	prm := Params{HistLen: 2, TopK: 2, Log2Buckets: 3, MarkovLog2: 2, MaxProbe: 4}
	tab := &Table{Params: prm, VocabFP: 0x5eed}
	tab.main = newSubtable(prm.Log2Buckets, prm.TopK, prm.MaxProbe)
	tab.markov = newSubtable(prm.MarkovLog2, prm.TopK, prm.MaxProbe)
	tab.main.keys[3] = 0xabc3
	tab.main.slots[6] = packSlot(17, 5, 0.75)
	tab.markov.keys[1] = 0x11
	tab.markov.slots[2] = packSlot(2, 60, 0.5)
	var b bytes.Buffer
	if _, err := tab.WriteTo(&b); err != nil {
		panic(err)
	}
	return b.Bytes()
}

// FuzzLoadTable feeds arbitrary bytes to Load, which reads operator-supplied
// table files. It must never panic, and a file it accepts must serialize
// back to exactly the bytes it consumed.
func FuzzLoadTable(f *testing.F) {
	valid := fuzzSeedTable()
	f.Add(valid)
	f.Add(valid[:len(valid)-3]) // truncated checksum
	f.Add(valid[:45])           // truncated payload
	badMagic := append([]byte(nil), valid...)
	badMagic[0] = 'X'
	f.Add(badMagic)
	huge := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(huge[12:], maxTopK)
	binary.LittleEndian.PutUint32(huge[16:], maxLog2) // claims 2^30 buckets
	f.Add(huge)
	f.Fuzz(func(t *testing.T, data []byte) {
		tab, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := tab.WriteTo(&out); err != nil {
			t.Fatalf("WriteTo of a loaded table: %v", err)
		}
		if out.Len() > len(data) || !bytes.Equal(out.Bytes(), data[:out.Len()]) {
			t.Fatalf("accepted %d-byte file re-serializes to different bytes", out.Len())
		}
	})
}
