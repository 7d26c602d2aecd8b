package xmath

import "testing"

// sinkX and sinkF keep the benchmarked results live.
var (
	sinkX XComplex
	sinkF XFloat
)

// BenchmarkXComplexMul times one normalized extended-range complex
// product — the per-pivot step of a determinant and of the eq. (17)
// deflation sums.
func BenchmarkXComplexMul(b *testing.B) {
	z := CFromParts(complex(1.25, -0.75), 400)
	w := CFromParts(complex(-0.5, 1.5), -900)
	acc := z
	for i := 0; i < b.N; i++ {
		acc = acc.Mul(w)
		if i&63 == 63 {
			acc = z // keep the exponent bounded
		}
	}
	sinkX = acc
}

// BenchmarkXFloatAdd times one extended-range real addition with an
// exponent gap that needs an alignment scale.
func BenchmarkXFloatAdd(b *testing.B) {
	x := FromParts(1.375, 1000)
	y := FromParts(-1.0625, 987)
	acc := x
	for i := 0; i < b.N; i++ {
		acc = x.Add(y)
		y = y.Neg()
	}
	sinkF = acc
}
