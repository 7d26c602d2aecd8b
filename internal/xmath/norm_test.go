package xmath

import (
	"fmt"
	"math"
	"testing"
)

// The oracle below is the Frexp/Ldexp normalization the exponent-field
// fast path replaced, kept verbatim so FuzzNormBits and
// TestNormBitsExponentSweep can demand bit identity with it.

func oracleFromFloat(v float64) XFloat {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", v))
	}
	if v == 0 {
		return XFloat{}
	}
	frac, e := math.Frexp(v)
	return XFloat{mant: frac * 2, exp: int64(e) - 1}
}

func oracleFromParts(mant float64, exp int64) XFloat {
	x := oracleFromFloat(mant)
	if x.mant == 0 {
		return x
	}
	x.exp += exp
	return x
}

func oracleMul(x, y XFloat) XFloat {
	if x.mant == 0 || y.mant == 0 {
		return XFloat{}
	}
	return oracleFromParts(x.mant*y.mant, x.exp+y.exp)
}

func oracleDiv(x, y XFloat) XFloat {
	if y.mant == 0 {
		panic("xmath: division by zero")
	}
	if x.mant == 0 {
		return XFloat{}
	}
	return oracleFromParts(x.mant/y.mant, x.exp-y.exp)
}

func oracleAdd(x, y XFloat) XFloat {
	if x.mant == 0 {
		return y
	}
	if y.mant == 0 {
		return x
	}
	if x.exp < y.exp {
		x, y = y, x
	}
	d := x.exp - y.exp
	if d > 64 {
		return x
	}
	return oracleFromParts(x.mant+math.Ldexp(y.mant, -int(d)), x.exp)
}

func oracleNormComplex(m complex128, e int64) XComplex {
	re, im := real(m), imag(m)
	if math.IsNaN(re) || math.IsNaN(im) || math.IsInf(re, 0) || math.IsInf(im, 0) {
		panic(fmt.Sprintf("xmath: cannot represent %v", m))
	}
	a := math.Max(math.Abs(re), math.Abs(im))
	if a == 0 {
		return XComplex{}
	}
	_, fe := math.Frexp(a)
	shift := fe - 1
	return XComplex{mant: complex(math.Ldexp(re, -shift), math.Ldexp(im, -shift)), exp: e + int64(shift)}
}

func oracleCMul(z, w XComplex) XComplex {
	if z.mant == 0 || w.mant == 0 {
		return XComplex{}
	}
	return oracleNormComplex(z.mant*w.mant, z.exp+w.exp)
}

func oracleCDiv(z, w XComplex) XComplex {
	if w.mant == 0 {
		panic("xmath: complex division by zero")
	}
	if z.mant == 0 {
		return XComplex{}
	}
	return oracleNormComplex(z.mant/w.mant, z.exp-w.exp)
}

func oracleCAdd(z, w XComplex) XComplex {
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
	scale := math.Ldexp(1, -int(d))
	return oracleNormComplex(z.mant+w.mant*complex(scale, 0), z.exp)
}

// outcome is a result reduced to its bits, or the panic it raised.
type outcome struct {
	re, im uint64
	exp    int64
	panic  string
}

func try(f func() (float64, float64, int64)) (o outcome) {
	defer func() {
		if r := recover(); r != nil {
			o = outcome{panic: fmt.Sprint(r)}
		}
	}()
	re, im, exp := f()
	return outcome{re: math.Float64bits(re), im: math.Float64bits(im), exp: exp}
}

func real1(x XFloat) (float64, float64, int64)   { return x.mant, 0, x.exp }
func cplx1(z XComplex) (float64, float64, int64) { return real(z.mant), imag(z.mant), z.exp }

// checkNormBits compares every normalizing operation with the oracle,
// bitwise, on operands built from raw float64 bit patterns.
func checkNormBits(t *testing.T, a, b, c, d uint64, e1, e2 int64) {
	t.Helper()
	e1 %= 1 << 40
	e2 %= 1 << 40
	fa, fb := math.Float64frombits(a), math.Float64frombits(b)
	fc, fd := math.Float64frombits(c), math.Float64frombits(d)
	same := func(op string, got, want func() (float64, float64, int64)) {
		t.Helper()
		if g, w := try(got), try(want); g != w {
			t.Fatalf("%s(%#x, %#x, %#x, %#x, %d, %d): got %+v, oracle %+v", op, a, b, c, d, e1, e2, g, w)
		}
	}

	same("FromFloat", func() (float64, float64, int64) { return real1(FromFloat(fa)) },
		func() (float64, float64, int64) { return real1(oracleFromFloat(fa)) })
	same("FromParts", func() (float64, float64, int64) { return real1(FromParts(fb, e1)) },
		func() (float64, float64, int64) { return real1(oracleFromParts(fb, e1)) })
	same("CFromParts", func() (float64, float64, int64) { return cplx1(CFromParts(complex(fa, fb), e1)) },
		func() (float64, float64, int64) { return cplx1(oracleNormComplex(complex(fa, fb), e1)) })
	same("FromComplex", func() (float64, float64, int64) { return cplx1(FromComplex(complex(fc, fd))) },
		func() (float64, float64, int64) { return cplx1(oracleNormComplex(complex(fc, fd), 0)) })

	// Binary operations take normal-form operands, so they exist only
	// for finite bit patterns.
	finite := func(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
	if finite(fa) && finite(fc) {
		x, y := oracleFromParts(fa, e1), oracleFromParts(fc, e2)
		same("Mul", func() (float64, float64, int64) { return real1(x.Mul(y)) },
			func() (float64, float64, int64) { return real1(oracleMul(x, y)) })
		same("Div", func() (float64, float64, int64) { return real1(x.Div(y)) },
			func() (float64, float64, int64) { return real1(oracleDiv(x, y)) })
		same("Add", func() (float64, float64, int64) { return real1(x.Add(y)) },
			func() (float64, float64, int64) { return real1(oracleAdd(x, y)) })
		same("Sub", func() (float64, float64, int64) { return real1(x.Sub(y)) },
			func() (float64, float64, int64) { return real1(oracleAdd(x, y.Neg())) })
	}
	if finite(fa) && finite(fb) && finite(fc) && finite(fd) {
		z, w := oracleNormComplex(complex(fa, fb), e1), oracleNormComplex(complex(fc, fd), e2)
		v := complex(fc, fd)
		same("CMul", func() (float64, float64, int64) { return cplx1(z.Mul(w)) },
			func() (float64, float64, int64) { return cplx1(oracleCMul(z, w)) })
		same("CDiv", func() (float64, float64, int64) { return cplx1(z.Div(w)) },
			func() (float64, float64, int64) { return cplx1(oracleCDiv(z, w)) })
		same("CAdd", func() (float64, float64, int64) { return cplx1(z.Add(w)) },
			func() (float64, float64, int64) { return cplx1(oracleCAdd(z, w)) })
		same("MulComplex", func() (float64, float64, int64) { return cplx1(z.MulComplex(v)) },
			func() (float64, float64, int64) { return cplx1(oracleCMul(z, oracleNormComplex(v, 0))) })
	}
}

// FuzzNormBits checks that the exponent-field normalization (FromFloat,
// FromParts, CFromParts and the arithmetic built on them) is bitwise the
// Frexp/Ldexp normalization it replaced — mantissa bits, exponent and
// panics alike — on arbitrary float64 bit patterns: ±0, subnormals,
// biased exponents 1 and 0x7fe, NaN and ±Inf.
func FuzzNormBits(f *testing.F) {
	f.Add(uint64(0x3ff8000000000000), uint64(0xc002000000000000), uint64(0x4010000000000000), uint64(0x3fe0000000000000), int64(3), int64(-7))
	f.Add(uint64(0x0000000000000001), uint64(0x8000000000000000), uint64(0x000fffffffffffff), uint64(0x0010000000000000), int64(0), int64(1))
	f.Add(uint64(0x7fefffffffffffff), uint64(0x0000000000000003), uint64(0xffe0000000000001), uint64(0x7ff0000000000000), int64(-1), int64(1<<39))
	f.Fuzz(checkNormBits)
}

// TestNormBitsExponentSweep runs the differential check over every
// biased exponent of one component against the boundary exponents of
// the other — in particular the spreads of 1022–1077 binades where
// normalization rounds the smaller component into the subnormal range
// or flushes it to zero.
func TestNormBitsExponentSweep(t *testing.T) {
	mants := []uint64{0, 1, 0x8000000000000, 0xfffffffffffff, 0x123456789abcd}
	for be := uint64(0); be <= expMask; be++ {
		others := []uint64{0, 1, 2, 52, 53, 54, 1022, 1023, 1024, 0x7fd, 0x7fe, 0x7ff}
		for _, k := range []uint64{0, 1, 52, 53, 1021, 1022, 1023, 1024, 1074, 1075, 1076, 1077} {
			if be >= k {
				others = append(others, be-k)
			}
		}
		for _, m := range mants {
			for _, ob := range others {
				a := be<<expShift | m
				b := 1<<63 | ob<<expShift | (m ^ 0x5555555555555)
				checkNormBits(t, a, b, b, a, int64(be), -int64(ob))
			}
		}
	}
}
