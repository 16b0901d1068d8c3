package tensor

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func naiveMatMul(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

func randMat(rng *rand.Rand, r, c int) *Mat {
	m := NewMat(r, c)
	for i := range m.Data {
		m.Data[i] = rng.Float32()*2 - 1
	}
	return m
}

func matsClose(t *testing.T, name string, got, want *Mat, tol float64) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		d := math.Abs(float64(got.Data[i] - want.Data[i]))
		if d > tol {
			t.Fatalf("%s: element %d: got %v want %v (|Δ|=%g)", name, i, got.Data[i], want.Data[i], d)
		}
	}
}

func TestMatMulMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	shapes := [][3]int{{1, 1, 1}, {2, 3, 4}, {7, 5, 3}, {64, 48, 80}, {130, 70, 90}}
	for _, s := range shapes {
		a := randMat(rng, s[0], s[1])
		b := randMat(rng, s[1], s[2])
		got := MatMul(nil, a, b)
		want := naiveMatMul(a, b)
		matsClose(t, "MatMul", got, want, 1e-3)
	}
}

func TestMatMulATransB(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	a := randMat(rng, 33, 17) // aᵀ is 17x33
	b := randMat(rng, 33, 21)
	got := MatMulATransB(nil, a, b)
	at := NewMat(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			at.Set(j, i, a.At(i, j))
		}
	}
	want := naiveMatMul(at, b)
	matsClose(t, "MatMulATransB", got, want, 1e-3)
}

func TestMatMulABTrans(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	a := randMat(rng, 19, 23)
	b := randMat(rng, 31, 23) // bᵀ is 23x31
	got := MatMulABTrans(nil, a, b)
	bt := NewMat(b.Cols, b.Rows)
	for i := 0; i < b.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			bt.Set(j, i, b.At(i, j))
		}
	}
	want := naiveMatMul(a, bt)
	matsClose(t, "MatMulABTrans", got, want, 1e-3)
}

func TestMatMulLargeParallelPath(t *testing.T) {
	// Large enough to take the parallelRows path.
	rng := rand.New(rand.NewSource(4))
	a := randMat(rng, 100, 90)
	b := randMat(rng, 90, 110)
	matsClose(t, "parallel MatMul", MatMul(nil, a, b), naiveMatMul(a, b), 1e-3)
}

func TestMatBasics(t *testing.T) {
	m := NewMat(2, 3)
	m.Set(1, 2, 5)
	if m.At(1, 2) != 5 {
		t.Fatalf("At/Set roundtrip failed")
	}
	if got := m.Row(1)[2]; got != 5 {
		t.Fatalf("Row slice view: got %v", got)
	}
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) == 9 {
		t.Fatalf("Clone aliases original")
	}
	m.Fill(2)
	m.ScaleInPlace(3)
	if m.At(0, 0) != 6 {
		t.Fatalf("Fill+Scale: got %v", m.At(0, 0))
	}
	o := NewMat(2, 3)
	o.Fill(1)
	m.AddInPlace(o)
	if m.At(1, 1) != 7 {
		t.Fatalf("AddInPlace: got %v", m.At(1, 1))
	}
	m.AxpyInPlace(2, o)
	if m.At(1, 1) != 9 {
		t.Fatalf("AxpyInPlace: got %v", m.At(1, 1))
	}
	if m.MaxAbs() != 9 {
		t.Fatalf("MaxAbs: got %v", m.MaxAbs())
	}
}

func TestFromSliceAndString(t *testing.T) {
	m := FromSlice(2, 2, []float32{1, 2, 3, 4})
	if m.At(1, 0) != 3 {
		t.Fatalf("FromSlice layout wrong")
	}
	if s := m.String(); s == "" {
		t.Fatalf("String empty")
	}
	big := NewMat(20, 20)
	if s := big.String(); s != "Mat(20x20)" {
		t.Fatalf("large String: %q", s)
	}
}

func TestShapePanics(t *testing.T) {
	cases := []func(){
		func() { MatMul(nil, NewMat(2, 3), NewMat(4, 2)) },
		func() { NewMat(2, 2).AddInPlace(NewMat(3, 3)) },
		func() { FromSlice(2, 2, []float32{1}) },
		func() { NewMat(-1, 2) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestGlorotBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	m := NewMat(30, 50)
	m.Glorot(rng)
	limit := float32(math.Sqrt(6.0 / 80.0))
	for _, v := range m.Data {
		if v < -limit || v > limit {
			t.Fatalf("Glorot value %v outside ±%v", v, limit)
		}
	}
	// Not all zero.
	if m.MaxAbs() == 0 {
		t.Fatalf("Glorot produced all zeros")
	}
}

// Property: (A·B)·C == A·(B·C) within float tolerance.
func TestMatMulAssociativityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := randMat(r, 1+r.Intn(8), 1+r.Intn(8))
		b := randMat(r, a.Cols, 1+r.Intn(8))
		c := randMat(r, b.Cols, 1+r.Intn(8))
		left := MatMul(nil, MatMul(nil, a, b), c)
		right := MatMul(nil, a, MatMul(nil, b, c))
		for i := range left.Data {
			if math.Abs(float64(left.Data[i]-right.Data[i])) > 1e-3 {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: softmax rows sum to 1 and are non-negative.
func TestSoftmaxRowsProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := randMat(r, 1+r.Intn(6), 1+r.Intn(20))
		// Include extreme values to exercise stability.
		if len(m.Data) > 2 {
			m.Data[0] = 100
			m.Data[1] = -100
		}
		sm := SoftmaxRows(m)
		for row := 0; row < sm.Rows; row++ {
			var sum float64
			for _, v := range sm.Row(row) {
				if v < 0 || math.IsNaN(float64(v)) {
					return false
				}
				sum += float64(v)
			}
			if math.Abs(sum-1) > 1e-4 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatMul128(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	x := randMat(rng, 128, 128)
	y := randMat(rng, 128, 128)
	dst := NewMat(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMul(dst, x, y)
	}
}

func BenchmarkMatMulATransB128(b *testing.B) {
	rng := rand.New(rand.NewSource(8))
	x := randMat(rng, 128, 128)
	y := randMat(rng, 128, 128)
	dst := NewMat(128, 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		MatMulATransB(dst, x, y)
	}
}

// naiveMatMulATransB / naiveMatMulABTrans are scalar references whose
// per-element summation order (ascending i / ascending k, one float32
// rounding per add) matches the contract the kernels document — so the
// kernels must match them BITWISE, not just within tolerance.
func naiveMatMulATransB(a, b *Mat) *Mat {
	out := NewMat(a.Cols, b.Cols)
	for k := 0; k < a.Cols; k++ {
		for j := 0; j < b.Cols; j++ {
			var s float32
			for i := 0; i < a.Rows; i++ {
				s += a.At(i, k) * b.At(i, j)
			}
			out.Set(k, j, s)
		}
	}
	return out
}

func naiveMatMulABTrans(a, b *Mat) *Mat {
	out := NewMat(a.Rows, b.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float32
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(j, k)
			}
			out.Set(i, j, s)
		}
	}
	return out
}

// matsBitIdentical compares by bit pattern, so NaNs compare equal to
// themselves and +0 differs from -0 — exactly the cases a tolerance
// comparison would paper over.
func matsBitIdentical(t *testing.T, name string, got, want *Mat) {
	t.Helper()
	if !got.SameShape(want) {
		t.Fatalf("%s: shape %dx%d != %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i := range got.Data {
		if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
			t.Fatalf("%s: element %d: got %v (%#08x) want %v (%#08x)",
				name, i, got.Data[i], math.Float32bits(got.Data[i]),
				want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// bitIdentityShapes crosses parallelThreshold in both directions: 20·15·11
// stays serial, 130·70·90 dispatches to the worker pool — the blocked,
// unrolled, parallel kernels must stay bit-identical to the scalar loops
// either way.
var bitIdentityShapes = [][3]int{{1, 1, 1}, {3, 5, 2}, {20, 15, 11}, {64, 48, 80}, {130, 70, 90}}

// TestMatMulExactBitIdentity pins the kernel numerics contract (mat.go):
// every kernel reproduces the scalar ascending-order reference bit for bit,
// at serial and parallel sizes, including the Acc variants' tmp-then-add
// equivalence.
func TestMatMulExactBitIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, s := range bitIdentityShapes {
		r, k, c := s[0], s[1], s[2]
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		matsBitIdentical(t, "MatMul", MatMul(nil, a, b), naiveMatMul(a, b))

		at := randMat(rng, r, k) // aᵀ·b: both r rows
		bt := randMat(rng, r, c)
		matsBitIdentical(t, "MatMulATransB", MatMulATransB(nil, at, bt), naiveMatMulATransB(at, bt))

		ab := randMat(rng, r, k) // a·bᵀ: shared k cols
		bb := randMat(rng, c, k)
		matsBitIdentical(t, "MatMulABTrans", MatMulABTrans(nil, ab, bb), naiveMatMulABTrans(ab, bb))

		// Acc variants: dst += product must equal tmp = product; dst += tmp.
		base := randMat(rng, r, c)
		accWant := base.Clone()
		accWant.AddInPlace(naiveMatMulABTrans(ab, bb))
		accGot := base.Clone()
		MatMulABTransAcc(accGot, ab, bb)
		matsBitIdentical(t, "MatMulABTransAcc", accGot, accWant)

		base2 := randMat(rng, k, c)
		accWant2 := base2.Clone()
		accWant2.AddInPlace(naiveMatMulATransB(at, bt))
		accGot2 := base2.Clone()
		MatMulATransBAcc(accGot2, at, bt)
		matsBitIdentical(t, "MatMulATransBAcc", accGot2, accWant2)
	}
}

// TestMatMulNonFinite is the regression test for the former av == 0 skip
// branches: skipping a zero a-element suppressed the NaN from 0·Inf and the
// sign flip from accumulating -0, silently diverging from IEEE semantics.
// The branch-free kernels must match the naive loops bitwise even when the
// inputs carry Inf, NaN, and signed zeros.
func TestMatMulNonFinite(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	inf := float32(math.Inf(1))
	nan := float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	for _, s := range [][3]int{{6, 9, 5}, {130, 70, 90}} {
		r, k, c := s[0], s[1], s[2]
		a := randMat(rng, r, k)
		b := randMat(rng, k, c)
		// Zero a-elements paired with non-finite b-elements: a zero-skip
		// kernel would drop the 0·Inf = NaN term entirely.
		a.Set(0, 0, 0)
		b.Set(0, 0, inf)
		a.Set(1, 2, 0)
		b.Set(2, 1, nan)
		// An all-zero row with mixed zero signs: -0 + +0 = +0 but
		// -0 + -0 = -0, so skipping "zero work" changes the result's sign.
		for j := 0; j < k; j++ {
			a.Set(2, j, negZero)
		}
		b.Set(3, 2, negZero)
		matsBitIdentical(t, "MatMul", MatMul(nil, a, b), naiveMatMul(a, b))

		bt := randMat(rng, r, c)
		bt.Set(0, 0, inf)
		matsBitIdentical(t, "MatMulATransB", MatMulATransB(nil, a, bt), naiveMatMulATransB(a, bt))

		bb := randMat(rng, c, k)
		bb.Set(0, 0, inf)
		bb.Set(1, 2, nan)
		matsBitIdentical(t, "MatMulABTrans", MatMulABTrans(nil, a, bb), naiveMatMulABTrans(a, bb))
	}
}

// TestMatMulKernelsAllocFree pins the steady-state allocation budget of
// every matmul entry point at zero, in both the serial (below
// parallelThreshold) and pool-dispatched (above it) regimes. The former
// parallelRows closure cost 1 alloc / 32 B on every call — this is the
// regression test for that fix (see chunkTask in pool.go).
func TestMatMulKernelsAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, size := range []struct {
		name    string
		r, k, c int
	}{{"serial_24", 24, 24, 24}, {"parallel_128", 128, 128, 128}} {
		a := randMat(rng, size.r, size.k)
		b := randMat(rng, size.k, size.c)
		dst := NewMat(size.r, size.c)
		at := randMat(rng, size.r, size.k)
		bt := randMat(rng, size.r, size.c)
		dstT := NewMat(size.k, size.c)
		bb := randMat(rng, size.c, size.k)
		dstB := NewMat(size.r, size.c)
		run := func(name string, f func()) {
			t.Helper()
			if n := testing.AllocsPerRun(10, f); n != 0 {
				t.Errorf("%s/%s: %v allocs/op, want 0", size.name, name, n)
			}
		}
		run("MatMul", func() { MatMul(dst, a, b) })
		run("MatMulATransB", func() { MatMulATransB(dstT, at, bt) })
		run("MatMulABTrans", func() { MatMulABTrans(dstB, a, bb) })
		run("MatMulATransBAcc", func() { MatMulATransBAcc(dstT, at, bt) })
		run("MatMulABTransAcc", func() { MatMulABTransAcc(dstB, a, bb) })
	}
}

func benchMatMul256(b *testing.B, f func(dst, x, y *Mat)) {
	rng := rand.New(rand.NewSource(9))
	x := randMat(rng, 256, 256)
	y := randMat(rng, 256, 256)
	dst := NewMat(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f(dst, x, y)
	}
}

func BenchmarkMatMul256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMul(dst, x, y) })
}

func BenchmarkMatMulATransB256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMulATransB(dst, x, y) })
}

func BenchmarkMatMulABTrans256(b *testing.B) {
	b.ReportAllocs()
	benchMatMul256(b, func(dst, x, y *Mat) { MatMulABTrans(dst, x, y) })
}
