package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeReport stores r as dir/BENCH_pr<n>.json, the layout CheckBenchReport
// scans.
func writeReport(t *testing.T, dir string, n int, r *BenchReport) {
	t.Helper()
	data, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	name := filepath.Join(dir, fmt.Sprintf("BENCH_pr%d.json", n))
	if err := os.WriteFile(name, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// gated returns an entry with a recorded baseline chain at the given ratio.
func gated(name string, speedup float64) BenchEntry {
	return BenchEntry{Name: name, NsPerOp: 1000, BaselineNsPerOp: int64(1000 * speedup), SpeedupVsBaseline: speedup}
}

// TestCheckBenchReport drives the bench-smoke gate over synthetic reports:
// healthy entries pass, a matmul_256 below its floor or missing fails, a
// quality overhead at or past its bound fails, and optional entries or
// fields that a report predates pass vacuously.
func TestCheckBenchReport(t *testing.T) {
	healthy := func() *BenchReport {
		return &BenchReport{
			Entries: []BenchEntry{
				gated("matmul_256", 1.0),
				gated("predict_batch_serial", 0.9),
			},
			ServeQualityOverhead: 1.01,
		}
	}
	cases := []struct {
		name    string
		edit    func(r *BenchReport)
		wantErr string
		wantMsg string
	}{
		{name: "healthy", edit: func(*BenchReport) {}, wantMsg: "matmul_256 1.00x"},
		{name: "matmul below floor", edit: func(r *BenchReport) {
			r.Entries[0] = gated("matmul_256", 0.79)
		}, wantErr: "regressed past the 0.80x gate"},
		{name: "matmul at floor", edit: func(r *BenchReport) {
			r.Entries[0] = gated("matmul_256", 0.80)
		}, wantMsg: "matmul_256 0.80x"},
		{name: "matmul missing", edit: func(r *BenchReport) {
			r.Entries = r.Entries[1:]
		}, wantErr: "no matmul_256 entry"},
		{name: "predict below floor", edit: func(r *BenchReport) {
			r.Entries[1] = gated("predict_batch_serial", 0.5)
		}, wantErr: "predict_batch_serial 0.50x"},
		{name: "quality overhead at bound", edit: func(r *BenchReport) {
			r.ServeQualityOverhead = 1.05
		}, wantErr: "serve_quality_overhead 1.050x"},
		{name: "optional entry absent", edit: func(r *BenchReport) {
			r.Entries = r.Entries[:1]
		}, wantMsg: "predict_batch_serial absent"},
		{name: "no baseline chain", edit: func(r *BenchReport) {
			r.Entries[1] = BenchEntry{Name: "predict_batch_serial", NsPerOp: 1000}
		}, wantMsg: "predict_batch_serial 1000 ns/op (no baseline chain)"},
		{name: "quality field absent", edit: func(r *BenchReport) {
			r.ServeQualityOverhead = 0
		}, wantMsg: "serve_quality_overhead absent"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := healthy()
			c.edit(r)
			dir := t.TempDir()
			writeReport(t, dir, 1, r)
			msg, err := CheckBenchReport(dir)
			if c.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), c.wantErr) {
					t.Fatalf("err = %v, want one containing %q", err, c.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("unexpected error: %v", err)
			}
			if !strings.Contains(msg, c.wantMsg) {
				t.Fatalf("message %q lacks %q", msg, c.wantMsg)
			}
		})
	}

	t.Run("newest report wins", func(t *testing.T) {
		dir := t.TempDir()
		bad := healthy()
		bad.Entries[0] = gated("matmul_256", 0.5)
		writeReport(t, dir, 1, bad)
		writeReport(t, dir, 2, healthy())
		if _, err := CheckBenchReport(dir); err != nil {
			t.Fatalf("older failing report should be ignored: %v", err)
		}
	})
	t.Run("no report", func(t *testing.T) {
		msg, err := CheckBenchReport(t.TempDir())
		if err != nil || !strings.Contains(msg, "nothing to gate") {
			t.Fatalf("got %q, %v; want a vacuous pass", msg, err)
		}
	})
}

// TestCommittedBenchReportsLoad loads every BENCH_pr<N>.json at the module
// root, including reports that carry fields and entries the current code no
// longer produces, and requires the bench-smoke gate to pass on the newest.
func TestCommittedBenchReportsLoad(t *testing.T) {
	root := filepath.Join("..", "..")
	paths, err := filepath.Glob(filepath.Join(root, "BENCH_pr*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) == 0 {
		t.Fatal("no committed BENCH_pr*.json reports found")
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		r, err := LoadBenchReport(data)
		if err != nil {
			t.Fatalf("%s: %v", p, err)
		}
		if r.entry("matmul_256") == nil {
			t.Errorf("%s: no matmul_256 entry", p)
		}
	}
	if _, err := CheckBenchReport(root); err != nil {
		t.Fatalf("newest committed report fails the gate: %v", err)
	}
}
