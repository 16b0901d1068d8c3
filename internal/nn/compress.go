package nn

import (
	"sort"

	"voyager/internal/tensor/quant"
)

// Compression utilities for §5.4's model-size study: magnitude pruning and
// linear quantization, the "standard pruning and quantization methods" the
// paper applies to shrink Voyager 110-200× below Delta-LSTM.

// PruneMagnitude zeroes the fraction frac of smallest-magnitude weights in
// every parameter and returns the number of weights zeroed.
func (s *ParamSet) PruneMagnitude(frac float32) int {
	if frac <= 0 {
		return 0
	}
	if frac > 1 {
		frac = 1
	}
	zeroed := 0
	for _, p := range s.list {
		n := len(p.W.Data)
		if n == 0 {
			continue
		}
		mags := make([]float32, n)
		for i, v := range p.W.Data {
			if v < 0 {
				v = -v
			}
			mags[i] = v
		}
		sort.Slice(mags, func(i, j int) bool { return mags[i] < mags[j] })
		k := int(float32(n) * frac)
		if k <= 0 {
			continue
		}
		if k > n {
			k = n
		}
		threshold := mags[k-1]
		for i, v := range p.W.Data {
			a := v
			if a < 0 {
				a = -a
			}
			if a <= threshold && zeroed < s.Count() {
				if p.W.Data[i] != 0 {
					zeroed++
				}
				p.W.Data[i] = 0
			}
		}
	}
	return zeroed
}

// Quantize rounds every parameter to 2^bits linear levels spanning its
// [min, max] range (per-tensor affine quantization), simulating a
// bits-per-weight deployment. Zeros stay exactly zero so pruning survives
// quantization. The rounding itself lives in quant.AffineQuantize.
func (s *ParamSet) Quantize(bits int) {
	for _, p := range s.list {
		quant.AffineQuantize(p.W.Data, bits)
	}
}

// NonZero counts the non-zero weights across the set (post-pruning size).
func (s *ParamSet) NonZero() int {
	n := 0
	for _, p := range s.list {
		for _, v := range p.W.Data {
			if v != 0 {
				n++
			}
		}
	}
	return n
}

// CompressedBytes estimates storage after pruning (only non-zero weights
// stored, sparse-format overhead ignored) at the given precision.
func (s *ParamSet) CompressedBytes(bitsPerWeight int) int {
	return s.NonZero() * bitsPerWeight / 8
}
