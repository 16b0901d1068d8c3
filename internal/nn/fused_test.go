package nn

import (
	"math"
	"math/rand"
	"testing"

	"voyager/internal/tensor"
)

// stepUnfused is the pre-fusion formulation of LSTM.Step — 4 SliceCols
// copies, 4 activation nodes and 3 element-wise nodes per call. It is the
// differential-test oracle for the fused tensor.LSTMCell kernel.
func stepUnfused(l *LSTM, tp *tensor.Tape, x *tensor.Node, s State) State {
	gates := tp.AddBias(
		tp.Add(tp.MatMul(x, l.Wx.Node(tp)), tp.MatMul(s.H, l.Wh.Node(tp))),
		l.B.Node(tp),
	)
	h := l.Hidden
	i := tp.Sigmoid(tp.SliceCols(gates, 0, h))
	f := tp.Sigmoid(tp.SliceCols(gates, h, 2*h))
	g := tp.Tanh(tp.SliceCols(gates, 2*h, 3*h))
	o := tp.Sigmoid(tp.SliceCols(gates, 3*h, 4*h))
	c := tp.Add(tp.Mul(f, s.C), tp.Mul(i, g))
	hOut := tp.Mul(o, tp.Tanh(c))
	return State{H: hOut, C: c}
}

// TestLSTMStepFusedMatchesUnfused unrolls a multi-step sequence through the
// fused Step and the stepUnfused oracle on identical weights and inputs, and
// demands bit-identical hidden states and parameter gradients. This is the
// layer-level differential guarantee the voyager golden test relies on.
func TestLSTMStepFusedMatchesUnfused(t *testing.T) {
	const in, hidden, batch, steps = 6, 5, 4, 3

	run := func(unfused bool) ([]float32, [][]float32) {
		rng := rand.New(rand.NewSource(33))
		l := NewLSTM("diff", in, hidden, rng)
		xs := make([]*tensor.Mat, steps)
		for s := range xs {
			xs[s] = tensor.NewMat(batch, in)
			xs[s].Uniform(rng, 1)
		}
		tp := tensor.NewTape()
		state := l.ZeroState(tp, batch)
		for _, x := range xs {
			if unfused {
				state = stepUnfused(l, tp, tp.Const(x), state)
			} else {
				state = l.Step(tp, tp.Const(x), state)
			}
		}
		loss := tp.MeanAll(tp.Tanh(state.H))
		tp.Backward(loss)
		grads := make([][]float32, 0, 3)
		for _, p := range l.Params() {
			grads = append(grads, append([]float32(nil), p.Grad.Data...))
		}
		return append([]float32(nil), state.H.Val.Data...), grads
	}

	fH, fG := run(false)
	uH, uG := run(true)
	for i := range fH {
		if fH[i] != uH[i] {
			t.Fatalf("h[%d]: fused %v vs unfused %v (must be bit-identical)", i, fH[i], uH[i])
		}
	}
	for p := range fG {
		for i := range fG[p] {
			if fG[p][i] != uG[p][i] {
				t.Fatalf("param %d grad[%d]: fused %v vs unfused %v (must be bit-identical)",
					p, i, fG[p][i], uG[p][i])
			}
		}
	}
}

// Finite-difference gradient check through an LSTM step + linear head at
// dimensions wide enough (≥ 8 inner terms) to exercise the 4-wide fused
// matmul passes, not just their scalar remainder loops. The check runs as the
// "exact" subtest: exact float32 accumulation is the only kernel mode.
func TestGradCheckFusedKernels(t *testing.T) {
	t.Run("exact", func(t *testing.T) {
		rng := rand.New(rand.NewSource(21))
		const in, hidden, batch = 9, 8, 5
		cell := NewLSTM("lstm", in, hidden, rng)
		head := NewLinear("head", hidden, 3, rng)
		x1 := tensor.NewMat(batch, in)
		x2 := tensor.NewMat(batch, in)
		x1.Uniform(rng, 1)
		x2.Uniform(rng, 1)
		targets := []int{0, 2, 1, 0, 2}

		build := func() (*tensor.Tape, *tensor.Node) {
			tp := tensor.NewTape()
			s := cell.Run(tp, []*tensor.Node{tp.Const(x1), tp.Const(x2)})
			logits := head.Forward(tp, s.H)
			loss, _ := tp.SoftmaxCrossEntropy(logits, targets)
			return tp, loss
		}

		params := append(cell.Params(), head.Params()...)
		for _, p := range params {
			p.ZeroGrad()
		}
		tp, loss := build()
		tp.Backward(loss)

		const eps, tol = 1e-2, 3e-2
		for _, p := range params {
			stride := 1 + p.Size()/12
			for i := 0; i < p.Size(); i += stride {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				_, lp := build()
				p.W.Data[i] = orig - eps
				_, lm := build()
				p.W.Data[i] = orig
				numeric := (float64(lp.Val.Data[0]) - float64(lm.Val.Data[0])) / (2 * eps)
				analytic := float64(p.Grad.Data[i])
				diff := math.Abs(numeric - analytic)
				scale := math.Max(1, math.Max(math.Abs(numeric), math.Abs(analytic)))
				if diff/scale > tol {
					t.Fatalf("%s elem %d: analytic %g numeric %g", p.Name, i, analytic, numeric)
				}
			}
		}
	})
}
