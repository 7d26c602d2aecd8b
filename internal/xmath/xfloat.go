// Package xmath provides extended-range floating-point scalars.
//
// Network-function coefficients of integrated circuits span many hundreds
// of decades: the µA741 denominator in the reference paper runs from about
// 1e-90 (s^0) down to 1e-522 (s^48), far below the smallest subnormal
// float64 (~4.9e-324), while intermediate determinant values can exceed
// 1e+308. XFloat and XComplex store a float64 (or complex128) mantissa
// together with a separate binary exponent, extending the representable
// range to |exponent| ~ 2^63 while keeping float64 mantissa precision
// (~15.95 decimal digits), which is exactly the precision model the paper
// assumes ("a computer with 16-decimal-digit accuracy").
package xmath

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// XFloat is an extended-range real number mant × 2^exp.
//
// Invariant (normal form): either mant == 0 and exp == 0, or
// 1 ≤ |mant| < 2. All constructors and arithmetic methods return values in
// normal form; the zero value of the struct is the number 0.
type XFloat struct {
	mant float64
	exp  int64
}

// FromFloat converts a float64 to an XFloat. Infinities and NaNs are not
// representable; they panic, because every code path in this module that
// could produce them is a bug upstream (singular matrix handling must
// happen before scalar conversion).
//
// A normal v is split by its bits alone: the mantissa is v with the
// biased exponent field set to expBias, the exponent the field minus
// expBias. Zeros, subnormals and non-finite values take fromFloatSlow.
func FromFloat(v float64) XFloat {
	bits := math.Float64bits(v)
	be := bits >> expShift & expMask
	if be-1 >= expMask-1 { // be is 0 or expMask
		return fromFloatSlow(v)
	}
	return XFloat{mant: math.Float64frombits(bits&^(expMask<<expShift) | expBias<<expShift), exp: int64(be) - expBias}
}

// fromFloatSlow is FromFloat by math.Frexp.
func fromFloatSlow(v float64) XFloat {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", v))
	}
	if v == 0 {
		return XFloat{}
	}
	frac, e := math.Frexp(v) // v = frac × 2^e, 0.5 ≤ |frac| < 1
	return XFloat{mant: frac * 2, exp: int64(e) - 1}
}

// The IEEE-754 binary64 exponent field: bits>>expShift&expMask of a
// float64, biased by expBias. A field of expMask marks NaN and ±Inf, 0
// marks ±0 and the subnormals.
const (
	expShift = 52
	expMask  = 0x7ff
	expBias  = 1023
)

// pow2 returns 2^k for −1022 ≤ k ≤ 1023, where it is a normal float64.
// Multiplying by it is exact, or rounds once into the subnormal range
// exactly as math.Ldexp does.
func pow2(k int64) float64 { return math.Float64frombits(uint64(k+expBias) << expShift) }

// NaN returns a quiet not-a-number XFloat. Together with Inf it is the
// only non-finite value the type admits, and it exists for the fault
// layer: arithmetic never produces it (constructors panic on non-finite
// input, see FromFloat), so consumers that may receive injected values
// screen them with Finite before computing.
func NaN() XFloat { return XFloat{mant: math.NaN()} }

// Inf returns an infinite XFloat with the given sign (≥ 0 selects +Inf).
// See NaN for the intended contract.
func Inf(sign int) XFloat {
	if sign < 0 {
		return XFloat{mant: math.Inf(-1)}
	}
	return XFloat{mant: math.Inf(1)}
}

// Finite reports whether x is neither NaN nor infinite. Values built
// through the normalizing constructors are always finite; only the NaN
// and Inf escape hatches produce non-finite values.
func (x XFloat) Finite() bool { return !math.IsNaN(x.mant) && !math.IsInf(x.mant, 0) }

// IsNaN reports whether x is the NaN value.
func (x XFloat) IsNaN() bool { return math.IsNaN(x.mant) }

// FromParts builds mant × 2^exp and normalizes it.
func FromParts(mant float64, exp int64) XFloat {
	x := FromFloat(mant)
	if x.mant == 0 {
		return x
	}
	x.exp += exp
	return x
}

// Zero reports whether x is exactly zero.
func (x XFloat) Zero() bool { return x.mant == 0 }

// Sign returns -1, 0 or +1.
func (x XFloat) Sign() int {
	switch {
	case x.mant > 0:
		return 1
	case x.mant < 0:
		return -1
	}
	return 0
}

// Mant returns the normalized mantissa (0 or in [1,2)).
func (x XFloat) Mant() float64 { return x.mant }

// Exp returns the binary exponent.
func (x XFloat) Exp() int64 { return x.exp }

// Neg returns -x.
func (x XFloat) Neg() XFloat { return XFloat{mant: -x.mant, exp: x.exp} }

// Abs returns |x|.
func (x XFloat) Abs() XFloat { return XFloat{mant: math.Abs(x.mant), exp: x.exp} }

// Mul returns x·y.
func (x XFloat) Mul(y XFloat) XFloat {
	if x.mant == 0 || y.mant == 0 {
		return XFloat{}
	}
	return FromParts(x.mant*y.mant, x.exp+y.exp)
}

// Div returns x/y. Division by zero panics.
func (x XFloat) Div(y XFloat) XFloat {
	if y.mant == 0 {
		panic("xmath: division by zero")
	}
	if x.mant == 0 {
		return XFloat{}
	}
	return FromParts(x.mant/y.mant, x.exp-y.exp)
}

// Add returns x+y.
func (x XFloat) Add(y XFloat) XFloat {
	if x.mant == 0 {
		return y
	}
	if y.mant == 0 {
		return x
	}
	// Align to the larger exponent; beyond ~60 bits the smaller operand is
	// entirely below the mantissa precision and vanishes.
	if x.exp < y.exp {
		x, y = y, x
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	return FromParts(x.mant+y.mant*pow2(-d), x.exp)
}

// Sub returns x−y.
func (x XFloat) Sub(y XFloat) XFloat { return x.Add(y.Neg()) }

// MulFloat returns x·v for a plain float64 v.
func (x XFloat) MulFloat(v float64) XFloat { return x.Mul(FromFloat(v)) }

// PowInt returns x^n for integer n (negative n inverts; 0^0 = 1).
// Computed by binary exponentiation so rounding stays at O(log n) ulps.
func (x XFloat) PowInt(n int) XFloat {
	if n == 0 {
		return FromFloat(1)
	}
	inv := false
	if n < 0 {
		inv = true
		n = -n
	}
	result := FromFloat(1)
	base := x
	for n > 0 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	if inv {
		return FromFloat(1).Div(result)
	}
	return result
}

// Cmp compares x and y, returning -1, 0 or +1.
func (x XFloat) Cmp(y XFloat) int {
	return x.Sub(y).Sign()
}

// CmpAbs compares |x| and |y|.
func (x XFloat) CmpAbs(y XFloat) int {
	xa, ya := x.Abs(), y.Abs()
	switch {
	case xa.mant == 0 && ya.mant == 0:
		return 0
	case xa.mant == 0:
		return -1
	case ya.mant == 0:
		return 1
	case xa.exp != ya.exp:
		if xa.exp < ya.exp {
			return -1
		}
		return 1
	case xa.mant < ya.mant:
		return -1
	case xa.mant > ya.mant:
		return 1
	}
	return 0
}

// Float64 converts back to float64. Values outside float64 range saturate
// to ±Inf / underflow to 0, mirroring IEEE-754 conversion semantics.
func (x XFloat) Float64() float64 {
	if x.mant == 0 {
		return 0
	}
	if x.exp > 1100 {
		return math.Inf(int(math.Copysign(1, x.mant)))
	}
	if x.exp < -1200 {
		return 0
	}
	return math.Ldexp(x.mant, int(x.exp))
}

// Log10 returns log10(|x|). Panics on zero.
func (x XFloat) Log10() float64 {
	if x.mant == 0 {
		panic("xmath: Log10 of zero")
	}
	return math.Log10(math.Abs(x.mant)) + float64(x.exp)*math.Ln2/math.Ln10
}

// Log2 returns log2(|x|). Panics on zero.
func (x XFloat) Log2() float64 {
	if x.mant == 0 {
		panic("xmath: Log2 of zero")
	}
	return math.Log2(math.Abs(x.mant)) + float64(x.exp)
}

// Pow10 returns 10^k as an XFloat for any integer k (|k| may far exceed
// the float64 exponent range).
func Pow10(k int) XFloat {
	return FromFloat(10).PowInt(k)
}

// decParts returns the sign, decimal mantissa in [1,10) and decimal
// exponent of x. Accuracy is limited by float64 evaluation of
// exp·log10(2): relative error grows like 1e-16·|log10(x)|, i.e. ~1e-13
// at the 1e±500 extremes — ample for the 6-significant-digit displays the
// paper uses.
func (x XFloat) decParts() (neg bool, mant10 float64, exp10 int) {
	l := x.Log10()
	exp10 = int(math.Floor(l))
	mant10 = math.Pow(10, l-float64(exp10))
	// Guard against Pow landing on 10.0 due to rounding at the boundary.
	if mant10 >= 10 {
		mant10 /= 10
		exp10++
	}
	if mant10 < 1 {
		mant10 *= 10
		exp10--
	}
	return x.mant < 0, mant10, exp10
}

// String formats x in scientific notation with 6 significant digits,
// matching the paper's table style (e.g. "-3.52987e+91").
func (x XFloat) String() string { return x.Text(6) }

// Text formats x in scientific notation with the given number of
// significant digits.
func (x XFloat) Text(digits int) string {
	if x.mant == 0 {
		return "0"
	}
	if digits < 1 {
		digits = 1
	}
	neg, m, e := x.decParts()
	// Rounding the mantissa may carry (9.9999 → 10.0).
	s := strconv.FormatFloat(m, 'f', digits-1, 64)
	if strings.HasPrefix(s, "10") {
		m /= 10
		e++
		s = strconv.FormatFloat(m, 'f', digits-1, 64)
	}
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s%se%+03d", sign, s, e)
}

// ApproxEqual reports whether x and y agree to within rel relative
// tolerance (measured against the larger magnitude). Two zeros are equal.
func (x XFloat) ApproxEqual(y XFloat, rel float64) bool {
	if x.mant == 0 && y.mant == 0 {
		return true
	}
	diff := x.Sub(y).Abs()
	scale := x.Abs()
	if y.Abs().CmpAbs(scale) > 0 {
		scale = y.Abs()
	}
	if scale.mant == 0 {
		return diff.mant == 0
	}
	return diff.Div(scale).Float64() <= rel
}
