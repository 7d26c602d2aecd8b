package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
)

// oldGuardFails is the replay guard before its max(|re|,|im|) quick
// test: the |piv| bound test, then the exact one.
func oldGuardFails(piv complex128, us []int32, a []complex128) bool {
	pa := cmplx.Abs(piv)
	bound := pa
	for _, s := range us {
		v := a[s]
		if m := math.Abs(real(v)) + math.Abs(imag(v)); !(m <= bound) {
			bound = m
		}
	}
	if pa >= 2*guardRatio*bound {
		return false
	}
	rowMax := 0.0
	if pa > rowMax {
		rowMax = pa
	}
	for _, s := range us {
		if v := a[s]; v != 0 {
			if m := cmplx.Abs(v); m > rowMax {
				rowMax = m
			}
		}
	}
	return pa < guardRatio*rowMax
}

// TestGuardQuickPathMatchesExact checks that guardFails decides every
// pivot exactly as oldGuardFails does: pivots swept through a factor of
// two either side of the guardRatio threshold and of the quick bound,
// in every direction from purely real to purely imaginary, against
// rows with and without NaN and ±Inf entries.
func TestGuardQuickPathMatchesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	nan, inf := math.NaN(), math.Inf(1)
	rows := [][]complex128{
		{},
		{0},
		{1},
		{3 - 4i, 1e-3i, 0},
		{complex(-2, 0), complex(0, 7), complex(5, 5)},
		{1e300, 1e-300i},
		{complex(nan, 0)},
		{8, complex(nan, 1), 1e-3},
		{1e-3, complex(0, nan), 8},
		{complex(inf, 0), 1},
		{1, complex(0, -inf)},
		{8, complex(nan, 0), complex(inf, 0), 1e-3},
		{complex(inf, nan), 2},
	}
	for range 20 {
		row := make([]complex128, 1+rng.Intn(6))
		for i := range row {
			row[i] = complex(rng.NormFloat64(), rng.NormFloat64()) * complex(math.Pow(10, float64(rng.Intn(9)-4)), 0)
			if rng.Intn(4) == 0 {
				row[i] = complex(real(row[i]), 0)
			}
		}
		rows = append(rows, row)
	}
	// Directions of the pivot: purely real, purely imaginary, both signs,
	// the diagonal (where max(|re|,|im|) is furthest below |piv|) and
	// random angles.
	dirs := []complex128{1, -1, 1i, -1i, complex(math.Sqrt2/2, math.Sqrt2/2), complex(-math.Sqrt2/2, math.Sqrt2/2)}
	for range 6 {
		dirs = append(dirs, cmplx.Rect(1, 2*math.Pi*rng.Float64()))
	}
	specials := []complex128{0, complex(nan, 0), complex(0, nan), complex(inf, 0), complex(0, -inf), complex(inf, nan)}

	cases, fails := 0, 0
	check := func(piv complex128, row []complex128) {
		t.Helper()
		a := append([]complex128{piv}, row...)
		us := make([]int32, len(row))
		for i := range us {
			us[i] = int32(i + 1)
		}
		got, want := guardFails(piv, us, a), oldGuardFails(piv, us, a)
		if got != want {
			t.Fatalf("guardFails(%v, %v) = %v, old guard %v", piv, row, got, want)
		}
		cases++
		if want {
			fails++
		}
	}
	for _, row := range rows {
		rowMax, rowSum := 0.0, 0.0
		for _, v := range row {
			if m := cmplx.Abs(v); m > rowMax {
				rowMax = m
			}
			if m := math.Abs(real(v)) + math.Abs(imag(v)); m > rowSum {
				rowSum = m
			}
		}
		for _, p := range specials {
			check(p, row)
		}
		// References: the exact threshold and the quick bound, and the
		// unit pivot for rows whose maxima are zero or not finite.
		for _, ref := range []float64{guardRatio * rowMax, 2 * guardRatio * rowSum, 1} {
			for _, d := range dirs {
				for f := 0.5; f <= 2; f *= 1.0625 {
					check(d*complex(ref*f, 0), row)
				}
				// The neighbouring floats of the threshold itself.
				for _, r := range []float64{math.Nextafter(ref, 0), ref, math.Nextafter(ref, inf)} {
					check(d*complex(r, 0), row)
				}
			}
		}
	}
	if fails == 0 || fails == cases {
		t.Fatalf("%d of %d cases fail the guard; the sweep does not straddle the threshold", fails, cases)
	}
}
