package xmath

import (
	"fmt"
	"math"
	"math/cmplx"
)

// XComplex is an extended-range complex number mant × 2^exp with a
// complex128 mantissa.
//
// Invariant (normal form): either mant == 0 and exp == 0, or
// 1 ≤ max(|Re mant|, |Im mant|) < 2. The zero value is the number 0.
// The two components share one exponent, so a component more than ~308
// decades below the other flushes to zero — the same relative-magnitude
// semantics complex128 has at ~16 decimal digits, just with a far wider
// absolute range.
//
// XComplex is the accumulator type for determinants: the determinant of a
// scaled modified-nodal matrix is a product of ~n pivots each of magnitude
// up to ~1e12, which overflows float64 well before the circuit sizes the
// paper targets (order-48 polynomials need 49×49 cofactor matrices).
type XComplex struct {
	mant complex128
	exp  int64
}

// normComplex scales m by the power of two that brings its larger
// component into [1,2). The power is read off the larger component's
// biased exponent field (the bits of non-negative floats order like
// their values), and the scaling is one multiply by pow2 — exact, or a
// single rounding of the smaller component into the subnormal range,
// bitwise what math.Ldexp gives. A zero, subnormal, near-overflow
// (field expMask−1, where 2^−shift is not normal) or non-finite larger
// component takes normComplexSlow.
func normComplex(m complex128, e int64) XComplex {
	const abs = 1<<63 - 1
	be := max(math.Float64bits(real(m))&abs, math.Float64bits(imag(m))&abs) >> expShift
	if be-1 >= expMask-2 { // be is 0, expMask−1 or expMask
		return normComplexSlow(m, e)
	}
	shift := int64(be) - expBias // bring max component into [1,2)
	s := pow2(-shift)
	return XComplex{mant: complex(real(m)*s, imag(m)*s), exp: e + shift}
}

// normComplexSlow is normComplex by math.Frexp and math.Ldexp; it
// rejects NaN and infinite components.
func normComplexSlow(m complex128, e int64) XComplex {
	re, im := real(m), imag(m)
	if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", m))
	}
	a := math.Max(math.Abs(re), math.Abs(im))
	if a == 0 {
		return XComplex{}
	}
	_, fe := math.Frexp(a) // a = f × 2^fe, f in [0.5,1)
	shift := fe - 1        // bring max component into [1,2)
	return XComplex{mant: complex(math.Ldexp(re, -shift), math.Ldexp(im, -shift)), exp: e + int64(shift)}
}

// FromComplex converts a complex128 to an XComplex.
func FromComplex(v complex128) XComplex { return normComplex(v, 0) }

// FromXFloat promotes a real XFloat to an XComplex.
func FromXFloat(x XFloat) XComplex {
	return XComplex{mant: complex(x.mant, 0), exp: x.exp}
}

// CFromParts builds mant × 2^exp and normalizes it.
func CFromParts(mant complex128, exp int64) XComplex { return normComplex(mant, exp) }

// CNaN returns an XComplex whose components are both NaN — the fault
// layer's representation of a failed (singular) point solve. Arithmetic
// never produces it (normComplex panics on non-finite mantissas), so
// consumers that may receive injected values screen them with Finite
// before computing. See XFloat.NaN for the matching real-valued escape
// hatch.
func CNaN() XComplex {
	return XComplex{mant: complex(math.NaN(), math.NaN())}
}

// CInf returns an XComplex with +Inf components, representing an
// overflowed or corrupted solve. See CNaN for the contract.
func CInf() XComplex {
	return XComplex{mant: complex(math.Inf(1), math.Inf(1))}
}

// Finite reports whether both components of z are finite (neither NaN
// nor infinite).
func (z XComplex) Finite() bool {
	re, im := real(z.mant), imag(z.mant)
	return !math.IsNaN(re) && !math.IsInf(re, 0) && !math.IsNaN(im) && !math.IsInf(im, 0)
}

// IsNaN reports whether either component of z is NaN.
func (z XComplex) IsNaN() bool {
	return math.IsNaN(real(z.mant)) || math.IsNaN(imag(z.mant))
}

// Zero reports whether z is exactly zero.
func (z XComplex) Zero() bool { return z.mant == 0 }

// Mant returns the normalized complex mantissa.
func (z XComplex) Mant() complex128 { return z.mant }

// Exp returns the binary exponent.
func (z XComplex) Exp() int64 { return z.exp }

// Neg returns -z.
func (z XComplex) Neg() XComplex { return XComplex{mant: -z.mant, exp: z.exp} }

// Conj returns the complex conjugate of z.
func (z XComplex) Conj() XComplex { return XComplex{mant: cmplx.Conj(z.mant), exp: z.exp} }

// Mul returns z·w.
func (z XComplex) Mul(w XComplex) XComplex {
	if z.mant == 0 || w.mant == 0 {
		return XComplex{}
	}
	return normComplex(z.mant*w.mant, z.exp+w.exp)
}

// MulComplex returns z·v for a plain complex128 v.
func (z XComplex) MulComplex(v complex128) XComplex { return z.Mul(FromComplex(v)) }

// MulX returns z·x for a real extended scalar x.
func (z XComplex) MulX(x XFloat) XComplex { return z.Mul(FromXFloat(x)) }

// Div returns z/w. Division by zero panics.
func (z XComplex) Div(w XComplex) XComplex {
	if w.mant == 0 {
		panic("xmath: complex division by zero")
	}
	if z.mant == 0 {
		return XComplex{}
	}
	return normComplex(z.mant/w.mant, z.exp-w.exp)
}

// Add returns z+w.
func (z XComplex) Add(w XComplex) XComplex {
	if z.mant == 0 {
		return w
	}
	if w.mant == 0 {
		return z
	}
	if z.exp < w.exp {
		z, w = w, z
	}
	d := z.exp - w.exp
	if d > 64 {
		return z
	}
	return normComplex(z.mant+w.mant*complex(pow2(-d), 0), z.exp)
}

// Sub returns z−w.
func (z XComplex) Sub(w XComplex) XComplex { return z.Add(w.Neg()) }

// AbsX returns |z| as an extended real.
func (z XComplex) AbsX() XFloat {
	if z.mant == 0 {
		return XFloat{}
	}
	return FromParts(cmplx.Abs(z.mant), z.exp)
}

// Real returns Re(z) as an extended real.
func (z XComplex) Real() XFloat {
	if real(z.mant) == 0 {
		return XFloat{}
	}
	return FromParts(real(z.mant), z.exp)
}

// Imag returns Im(z) as an extended real.
func (z XComplex) Imag() XFloat {
	if imag(z.mant) == 0 {
		return XFloat{}
	}
	return FromParts(imag(z.mant), z.exp)
}

// Complex128 converts back to complex128, saturating/flushing components
// that leave the float64 range.
func (z XComplex) Complex128() complex128 {
	return complex(z.Real().Float64(), z.Imag().Float64())
}

// PowInt returns z^n for integer n (negative n inverts; 0^0 = 1).
func (z XComplex) PowInt(n int) XComplex {
	if n == 0 {
		return FromComplex(1)
	}
	inv := false
	if n < 0 {
		inv = true
		n = -n
	}
	result := FromComplex(1)
	base := z
	for n > 0 {
		if n&1 == 1 {
			result = result.Mul(base)
		}
		base = base.Mul(base)
		n >>= 1
	}
	if inv {
		return FromComplex(1).Div(result)
	}
	return result
}

// String formats z as "re+imi" with 6 significant digits per component.
func (z XComplex) String() string {
	re, im := z.Real(), z.Imag()
	if im.Zero() {
		return re.String()
	}
	sign := "+"
	if im.Sign() < 0 {
		sign = "-"
		im = im.Neg()
	}
	return fmt.Sprintf("%s%sj%s", re.String(), sign, im.String())
}

// ApproxEqual reports whether z and w agree to within rel relative
// tolerance measured against the larger magnitude.
func (z XComplex) ApproxEqual(w XComplex, rel float64) bool {
	if z.mant == 0 && w.mant == 0 {
		return true
	}
	diff := z.Sub(w).AbsX()
	scale := z.AbsX()
	if w.AbsX().Cmp(scale) > 0 {
		scale = w.AbsX()
	}
	if scale.Zero() {
		return diff.Zero()
	}
	return diff.Div(scale).Float64() <= rel
}
