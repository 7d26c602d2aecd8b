package sparse

import (
	"math"
	"math/cmplx"
	"math/rand/v2"
	"testing"

	"repro/internal/dense"
	"repro/internal/xmath"
)

// fuzzMatrix draws an n×n stamp list: a diagonal plus random
// off-diagonal positions, some stamped twice, with values that make the
// rows diagonally dominant by a factor of two (so the dense oracle is a
// meaningful reference at any global scale). Every third off-diagonal
// position gets a zero first stamp: a structural position the priming
// matrix does not have.
func fuzzMatrix(rng *rand.Rand, n int, density float64) (rows, cols []int, vals []complex128) {
	off := make([]float64, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j || rng.Float64() >= density {
				continue
			}
			v := complex(rng.Float64()*2-1, rng.Float64()*2-1)
			if len(vals)%3 == 0 {
				rows, cols, vals = append(rows, i), append(cols, j), append(vals, 0)
			}
			rows, cols, vals = append(rows, i), append(cols, j), append(vals, v)
			off[i] += cmplx.Abs(v)
		}
	}
	for i := 0; i < n; i++ {
		d := 2*off[i] + 1 + rng.Float64()
		rows, cols, vals = append(rows, i), append(cols, i), append(vals, cmplx.Rect(d, rng.Float64()*2*math.Pi))
	}
	return rows, cols, vals
}

// stampBoth accumulates the stamp list into slots and into a Matrix.
func stampBoth(n int, slot []int32, rows, cols []int, vals []complex128, scale complex128, b []complex128) *Matrix {
	m := New(n)
	for k, v := range vals {
		Add(b, slot[k], v*scale)
		m.Add(rows[k], cols[k], v*scale)
	}
	return m
}

func sameBits(x, y []complex128) bool {
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
			return false
		}
	}
	return len(x) == len(y)
}

func closeDet(got, want xmath.XComplex) bool {
	// Compare in extended range: got/want must be 1 within tolerance.
	if want.Zero() {
		return got.Zero()
	}
	r := got.Div(want).Complex128()
	return cmplx.Abs(r-1) <= 1e-8
}

// FuzzLUReplay checks the compiled kernel differentially on random small
// patterns, values and scales:
//   - the factorization that primes a Pattern equals Matrix.FactorInPlace
//     bit for bit, and a replay at the priming matrix equals both (or
//     misses only where the guard rejects a pivot);
//   - Det and Solve agree with internal/dense within tolerance, for the
//     priming matrix and for a replay at perturbed values;
//   - a vanished or guard-failing planned pivot, or an entry outside the
//     compiled pattern, yields ErrPlanMiss, and the fallback equals the
//     full factorization bit for bit.
func FuzzLUReplay(f *testing.F) {
	f.Add(uint64(1), uint8(3), uint8(40), 0.0)
	f.Add(uint64(2), uint8(6), uint8(25), 40.0)
	f.Add(uint64(3), uint8(1), uint8(90), -60.0)
	f.Add(uint64(4), uint8(5), uint8(60), 7.5)
	f.Fuzz(func(t *testing.T, seed uint64, nRaw, densRaw uint8, logScale float64) {
		if math.IsNaN(logScale) || math.IsInf(logScale, 0) {
			return
		}
		n := 1 + int(nRaw%7)
		rng := rand.New(rand.NewPCG(seed, 0x5eed))
		rows, cols, vals := fuzzMatrix(rng, n, float64(densRaw%100)/100)
		scale := complex(math.Pow(10, math.Mod(logScale, 100)), 0)
		p, slot := NewPattern(n, rows, cols)
		var ws Workspace
		b0 := ws.Stamps(p)
		m0 := stampBoth(n, slot, rows, cols, vals, scale, b0)
		prime := append([]complex128(nil), b0...)

		f0, err := p.Factor(b0, &ws)
		if err != nil {
			t.Fatalf("priming: %v", err)
		}
		full, err := m0.FactorInPlace(DefaultThreshold)
		if err != nil {
			t.Fatalf("full: %v", err)
		}
		if f0.Det() != full.Det() {
			t.Fatalf("priming det %v, full %v", f0.Det(), full.Det())
		}
		rhs := make([]complex128, n)
		for i := range rhs {
			rhs[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		x0, _ := f0.Solve(rhs)
		xf, _ := full.Solve(rhs)
		if !sameBits(x0, xf) {
			t.Fatalf("priming solve %v, full %v", x0, xf)
		}

		// Dense oracle.
		dm := dense.New(n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, m0.At(i, j))
			}
		}
		if !closeDet(f0.Det(), dm.Det()) {
			t.Fatalf("det %v, dense %v", f0.Det(), dm.Det())
		}
		xd, err := dm.Solve(rhs)
		if err != nil {
			t.Fatal(err)
		}
		xmax := 0.0
		for _, v := range xd {
			xmax = math.Max(xmax, cmplx.Abs(v))
		}
		for i := range xd {
			if cmplx.Abs(x0[i]-xd[i]) > 1e-8*xmax {
				t.Fatalf("x[%d] = %v, dense %v", i, x0[i], xd[i])
			}
		}

		// Replay at the priming matrix: the full factorization's bits, or
		// a miss only where a pivot fails the guard against its row.
		sym := p.plan.sym.Load()
		fr, err := replayStamps(sym, prime)
		switch err {
		case nil:
			if fr.Det() != full.Det() {
				t.Fatalf("replay det %v, full %v", fr.Det(), full.Det())
			}
			xr, _ := fr.Solve(rhs)
			if !sameBits(xr, xf) {
				t.Fatalf("replay solve %v, full %v", xr, xf)
			}
		case ErrPlanMiss:
			if !someGuardFails(full) {
				t.Fatal("replay at the priming matrix missed with every pivot passing the guard")
			}
		default:
			t.Fatal(err)
		}

		// Replay at perturbed values agrees with the dense oracle, and
		// repeats bit for bit.
		b1 := ws.Stamps(p)
		pert := make([]complex128, len(vals))
		for k, v := range vals {
			pert[k] = v * complex(1+0.3*(rng.Float64()*2-1), 0.3*(rng.Float64()*2-1))
		}
		m1 := stampBoth(n, slot, rows, cols, pert, scale, b1)
		f1, err := p.Factor(b1, &ws)
		if err != nil {
			t.Fatal(err)
		}
		d1 := f1.Det()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				dm.Set(i, j, m1.At(i, j))
			}
		}
		if !closeDet(d1, dm.Det()) {
			t.Fatalf("perturbed det %v, dense %v", d1, dm.Det())
		}
		if again, _ := p.Factor(b1, &ws); again.Det() != d1 {
			t.Fatal("replay not deterministic")
		}

		// A vanished planned pivot misses, and the fallback is the full
		// factorization.
		b2 := append([]complex128(nil), prime...)
		b2[sym.piv[0]] = 0
		if _, err := replayStamps(sym, b2); err != ErrPlanMiss {
			t.Fatalf("vanished pivot: err = %v, want ErrPlanMiss", err)
		}
		m2 := m0.Clone()
		m2.Set(sym.pivRow[0], sym.pivCol[0], 0)
		checkFallback(t, p, &ws, b2, m2)

		// A guard-failing planned pivot misses.
		us := sym.u[sym.uPtr[0]:sym.uPtr[1]]
		rowMax := 0.0
		for _, s := range us {
			rowMax = math.Max(rowMax, cmplx.Abs(prime[s]))
		}
		if rowMax > 0 {
			b3 := append([]complex128(nil), prime...)
			b3[sym.piv[0]] = complex(rowMax*guardRatio*1e-3, 0)
			if _, err := replayStamps(sym, b3); err != ErrPlanMiss {
				t.Fatalf("guard-failing pivot: err = %v, want ErrPlanMiss", err)
			}
			m3 := m0.Clone()
			m3.Set(sym.pivRow[0], sym.pivCol[0], b3[sym.piv[0]])
			checkFallback(t, p, &ws, b3, m3)
		}

		// An entry outside the compiled pattern misses.
		var sp SharedPlan
		if _, err := m0.FactorSharedInto(&sp, &ws); err != nil {
			t.Fatal(err)
		}
		inPattern := make(map[[2]int32]bool)
		for s, i := range sp.sym.Load().row {
			inPattern[[2]int32{i, sp.sym.Load().col[s]}] = true
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if inPattern[[2]int32{int32(i), int32(j)}] {
					continue
				}
				m4 := m0.Clone()
				m4.Set(i, j, 1)
				if _, err := m4.FactorSharedInto(&sp, &ws); err != ErrPlanMiss {
					t.Fatalf("entry (%d,%d) outside the pattern: err = %v, want ErrPlanMiss", i, j, err)
				}
				return
			}
		}
	})
}

// someGuardFails reports whether some pivot of f is below guardRatio
// times the largest entry of its U row.
func someGuardFails(f *LU) bool {
	sym := f.sym
	for k, ps := range sym.piv {
		pa := cmplx.Abs(f.a[ps])
		rowMax := pa
		for _, s := range sym.u[sym.uPtr[k]:sym.uPtr[k+1]] {
			rowMax = math.Max(rowMax, cmplx.Abs(f.a[s]))
		}
		if pa < guardRatio*rowMax {
			return true
		}
	}
	return false
}

// checkFallback asserts that p.Factor on stamp values b (whose replay
// misses) returns the full factorization of the equivalent matrix m, bit
// for bit, and leaves the shared plan alone.
func checkFallback(t *testing.T, p *Pattern, ws *Workspace, b []complex128, m *Matrix) {
	t.Helper()
	sym := p.plan.sym.Load()
	full, errFull := m.FactorInPlace(DefaultThreshold)
	got, err := p.Factor(b, ws)
	if (err == nil) != (errFull == nil) {
		t.Fatalf("fallback err = %v, full err = %v", err, errFull)
	}
	if err == nil && got.Det() != full.Det() {
		t.Fatalf("fallback det %v, full %v", got.Det(), full.Det())
	}
	if p.plan.sym.Load() != sym {
		t.Fatal("a plan miss replaced the shared plan")
	}
}
