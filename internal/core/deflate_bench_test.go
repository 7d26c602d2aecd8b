package core

import (
	"testing"

	"repro/internal/dft"
	"repro/internal/xmath"
)

// BenchmarkDeflationApplyUA741 times the eq. (17) subtraction of one
// frame on the µA741-like degree-48 profile: the lower 24 coefficients
// known, a 25-coefficient window with guard points, applied to the
// computed half of the frame's points.
func BenchmarkDeflationApplyUA741(b *testing.B) {
	p := ua741Profile()
	const f, g, m = 1e8, 1.0, 49
	n, k0 := len(p)-1, 24
	kUse := n - k0 + 1 + guardPoints
	coeffs := make([]Coefficient, len(p))
	for j := 0; j < k0; j++ {
		coeffs[j] = Coefficient{Status: Valid, Value: p[j], Quality: 2}
	}
	d := newDeflation(coeffs, f, g, m, n, k0, kUse, 6)
	pts := dft.UnitCirclePoints(kUse)[:dft.HermitianHalf(kUse)]
	norm := p.Normalize(f, g, m)
	values := make([]xmath.XComplex, len(pts))
	for i, u := range pts {
		values[i] = norm.Eval(xmath.FromComplex(u))
	}
	work := make([]xmath.XComplex, len(values))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(work, values)
		d.apply(work, pts)
	}
}
