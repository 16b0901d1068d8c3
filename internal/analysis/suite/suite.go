// Package suite assembles the project's analyzer set with its production
// configuration: which packages are determinism-critical, which are hot
// float32 kernels, and which functions are intentional wide accumulators.
// cmd/vetvoyager and TestAnalyzersCleanOnRepo both run exactly this suite,
// so the CLI and `go test ./...` can never disagree about what is clean.
package suite

import (
	"voyager/internal/analysis"
	"voyager/internal/analysis/arenaescape"
	"voyager/internal/analysis/atomicmix"
	"voyager/internal/analysis/benchallocs"
	"voyager/internal/analysis/errflow"
	"voyager/internal/analysis/f64promote"
	"voyager/internal/analysis/hotalloc"
	"voyager/internal/analysis/maporder"
	"voyager/internal/analysis/sharedrand"
	"voyager/internal/analysis/waitleak"
)

// CriticalPackages are the packages whose outputs must be bit-identical
// across runs and worker counts: the tensor kernels and the number-format
// helpers in tensor/quant (the f16 converters the distilled tables are
// packed with, and the affine rounding of the model-size study), the
// neural layers, the training engine, the vocabulary/label builders
// that fix token ids for the lifetime of a model, the metrics registry
// whose snapshots are diffed byte-for-byte in the differential tests,
// and the span tracer whose logical-clock exports must reproduce
// byte-for-byte, and the distillation compiler whose tables must be
// byte-identical for one (model, trace, params) triple. The serving
// daemon joins the list because its responses are byte-compared against
// offline inference (the golden differential) — a nondeterministic map
// walk in its session or eviction paths would be a serving-order bug.
// The quality scorer joins for the same reason the metrics registry did:
// its rolling-window counters are asserted bit-for-bit across parallel
// and serial replays, so an ordered map walk anywhere in scoring or
// reporting would break the replay-determinism contract.
var CriticalPackages = []string{
	"voyager/internal/tensor",
	"voyager/internal/tensor/quant",
	"voyager/internal/nn",
	"voyager/internal/voyager",
	"voyager/internal/vocab",
	"voyager/internal/label",
	"voyager/internal/metrics",
	"voyager/internal/tracing",
	"voyager/internal/distill",
	"voyager/internal/serve",
	"voyager/internal/serve/quality",
}

// HotKernelPackages must stay in float32 end to end. The tensor/quant
// helpers qualify: their only float64 appearances are bit-pattern
// helpers (math.Float32bits/frombits), never float64 arithmetic. The
// distill compiler aggregates teacher weights in float32 by the same
// contract (its float64 use is confined to the Agreement ratio, which
// never truncates back).
var HotKernelPackages = []string{
	"voyager/internal/tensor",
	"voyager/internal/tensor/quant",
	"voyager/internal/distill",
}

// WideAccumulators are tensor functions that intentionally accumulate in
// float64: scalar reductions whose single rounding at the end is part of
// the golden numerics (changing them would change every golden test), and
// the scalar transcendental helpers that have no float32 stdlib
// counterpart.
var WideAccumulators = []string{
	"sigmoid32",
	"tanh32",
	"softmaxRow",
	"SoftmaxCrossEntropy",
	"SigmoidBCEWeighted",
	"MeanAll",
	"SumAll",
}

// ErrFlowPackages are the serialization-critical packages: every Save /
// Load / Write / Close / Fprintf error in them guards durability — a
// dropped one turns a full disk into a silently truncated table or trace.
// The cmd/... prefix covers every binary's report and output files; the
// serving daemon is here because a dropped write/flush error on its wire
// path would silently hang a client waiting for a response frame.
var ErrFlowPackages = []string{
	"voyager/internal/distill",
	"voyager/internal/trace",
	"voyager/internal/tracing",
	"voyager/internal/metrics",
	"voyager/internal/serve",
	"voyager/internal/serve/quality",
	"voyager/cmd/...",
}

// Analyzers returns the production analyzer suite.
func Analyzers() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		maporder.New(CriticalPackages...),
		arenaescape.New("voyager/internal/tensor", "voyager/internal/tracing"),
		f64promote.New(HotKernelPackages, WideAccumulators),
		sharedrand.New(),
		benchallocs.New(),
		atomicmix.New(),
		errflow.New(ErrFlowPackages, errflow.DefaultCalls),
		hotalloc.New(),
		waitleak.New(),
	}
}
