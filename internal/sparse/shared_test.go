package sparse

import (
	"math"
	"math/cmplx"
	"math/rand"
	"sync"
	"testing"
)

// randomShared builds a deterministic random diagonally-dominant matrix.
func randomShared(rng *rand.Rand, n int) *Matrix {
	m := New(n)
	for i := 0; i < n; i++ {
		m.Set(i, i, complex(4+rng.Float64(), rng.Float64()))
		for k := 0; k < 3; k++ {
			j := rng.Intn(n)
			if j != i {
				m.Add(i, j, complex(rng.Float64()-0.5, rng.Float64()-0.5))
			}
		}
	}
	return m
}

func TestFactorDeterministicBits(t *testing.T) {
	// The same matrix factored repeatedly must yield bit-identical
	// determinants and solutions — the property the parallel batch
	// layer is built on (sorted U-rows, deterministic pivot ties).
	rng := rand.New(rand.NewSource(7))
	m := randomShared(rng, 12)
	b := make([]complex128, 12)
	for i := range b {
		b[i] = complex(rng.Float64(), rng.Float64())
	}
	refDet := m.Det()
	refX, err := m.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		if d := m.Det(); d != refDet {
			t.Fatalf("trial %d: Det differs: %v vs %v", trial, d, refDet)
		}
		x, err := m.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		for i := range x {
			if x[i] != refX[i] {
				t.Fatalf("trial %d: x[%d] differs: %v vs %v", trial, i, x[i], refX[i])
			}
		}
	}
}

func TestFactorSharedMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randomShared(rng, 10)
	var sp SharedPlan
	var ws Workspace
	if sp.Primed() {
		t.Fatal("fresh plan reports primed")
	}
	f1, err := m.FactorSharedInto(&sp, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if !sp.Primed() {
		t.Fatal("plan not primed by first factorization")
	}
	ref, err := m.FactorInPlace(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if f1.Det() != ref.Det() {
		t.Fatalf("priming factorization differs from FactorInPlace: %v vs %v", f1.Det(), ref.Det())
	}
	// The replay at the priming matrix is the full factorization, bit
	// for bit: same pivots, same recurrence, same zero skips.
	f2, err := m.FactorSharedInto(&sp, &ws)
	if err != nil {
		t.Fatal(err)
	}
	if f2.Det() != ref.Det() {
		t.Fatalf("replay at the priming matrix differs: %v vs %v", f2.Det(), ref.Det())
	}
	b := make([]complex128, 10)
	for i := range b {
		b[i] = complex(rng.Float64(), rng.Float64())
	}
	x1, _ := ref.Solve(b)
	x2 := make([]complex128, 10)
	if err := f2.SolveInto(x2, b, &ws); err != nil {
		t.Fatal(err)
	}
	for i := range x1 {
		if x1[i] != x2[i] {
			t.Fatalf("replayed solve x[%d] = %v, full %v", i, x2[i], x1[i])
		}
	}
	// Replay on the same pattern with different values is deterministic.
	m2 := m.Clone()
	m2.Add(0, 0, 0.25)
	f3, err := m2.FactorSharedInto(&sp, &ws)
	if err != nil {
		t.Fatal(err)
	}
	d3 := f3.Det()
	if d3.Zero() {
		t.Fatal("replayed factorization lost the determinant")
	}
	for trial := 0; trial < 10; trial++ {
		f, err := m2.FactorSharedInto(&sp, &ws)
		if err != nil {
			t.Fatal(err)
		}
		if f.Det() != d3 {
			t.Fatalf("replay not deterministic: %v vs %v", f.Det(), d3)
		}
	}
}

func TestFactorSharedIntoErrPlanMiss(t *testing.T) {
	// Prime on a diagonal matrix, then replay on matrices the compiled
	// plan does not fit: FactorSharedInto must report ErrPlanMiss so the
	// caller falls back to FactorInPlace, and never a wrong value.
	m := New(2)
	m.Set(0, 0, 1)
	m.Set(1, 1, 1)
	var sp SharedPlan
	var ws Workspace
	if _, err := m.FactorSharedInto(&sp, &ws); err != nil {
		t.Fatal(err)
	}
	// An entry outside the compiled pattern.
	outside := m.Clone()
	outside.Set(0, 1, 1)
	if _, err := outside.FactorSharedInto(&sp, &ws); err != ErrPlanMiss {
		t.Fatalf("entry outside the pattern: err = %v, want ErrPlanMiss", err)
	}
	// The planned (0,0) pivot vanishes.
	vanished := New(2)
	vanished.Set(1, 1, 1)
	if _, err := vanished.FactorSharedInto(&sp, &ws); err != ErrPlanMiss {
		t.Fatalf("vanished pivot: err = %v, want ErrPlanMiss", err)
	}
	// The planned (0,0) pivot fails the stability guard against its row.
	guard := New(2)
	guard.Set(0, 0, 1e-12)
	guard.Set(0, 1, 1)
	guard.Set(1, 1, 1)
	var sp2 SharedPlan
	prime := guard.Clone()
	prime.Set(0, 0, 1)
	if _, err := prime.FactorSharedInto(&sp2, &ws); err != nil {
		t.Fatal(err)
	}
	if sym := sp2.sym.Load(); sym.pivRow[0] != 0 || sym.pivCol[0] != 0 {
		t.Fatalf("unexpected first pivot (%d,%d)", sym.pivRow[0], sym.pivCol[0])
	}
	if _, err := guard.FactorSharedInto(&sp2, &ws); err != ErrPlanMiss {
		t.Fatalf("guard-failing pivot: err = %v, want ErrPlanMiss", err)
	}
	// The misses must not have changed the shared plan: the original
	// pattern still replays.
	if _, err := m.FactorSharedInto(&sp, &ws); err != nil {
		t.Fatalf("plan corrupted by miss: %v", err)
	}
}

func TestPatternFillFromZeroStamp(t *testing.T) {
	// A stamp position whose value cancels to zero at the priming point
	// is not a Markowitz candidate, but its fill is compiled, so a later
	// point where it is nonzero still replays — to the full
	// factorization's bits.
	rows := []int{0, 0, 1, 1, 2, 2, 2, 0}
	cols := []int{0, 2, 1, 2, 0, 2, 1, 1}
	p, slot := NewPattern(3, rows, cols)
	stamp := func(b []complex128, v01 complex128) *Matrix {
		vals := []complex128{4, 1, 3, 1, 1, 5, 2, v01}
		m := New(3)
		for k, v := range vals {
			Add(b, slot[k], v)
			m.Add(rows[k], cols[k], v)
		}
		return m
	}
	var ws Workspace
	b := ws.Stamps(p)
	stamp(b, 0)
	if _, err := p.Factor(b, &ws); err != nil {
		t.Fatal(err)
	}
	sym := p.plan.sym.Load()
	b = ws.Stamps(p)
	m := stamp(b, 0.5)
	f, err := replayStamps(sym, b)
	if err != nil {
		t.Fatalf("replay with the zero stamp now nonzero: %v", err)
	}
	if got, want := f.Det(), m.Det(); cmplx.Abs(got.Complex128()-want.Complex128()) > 1e-12*cmplx.Abs(want.Complex128()) {
		t.Errorf("det %v, want %v", got, want)
	}
}

// replayStamps replays sym on a copy of the stamp values b, bypassing
// Pattern.Factor's fallback so a miss stays visible.
func replayStamps(sym *Symbolic, b []complex128) (*LU, error) {
	a := make([]complex128, len(sym.row))
	copy(a, b)
	return sym.replay(a, &Workspace{})
}

func TestAddMatchesMatrixAdd(t *testing.T) {
	// Add keeps a Matrix's arithmetic: zeros skipped, cancellations +0.
	vals := []complex128{complex(0, -1), complex(0, 1), complex(math.Copysign(0, -1), 0), 2, -2, complex(3, math.Copysign(0, -1))}
	b := make([]complex128, 1)
	m := New(1)
	for _, v := range vals {
		Add(b, 0, v)
		m.Add(0, 0, v)
		if got, want := b[0], m.At(0, 0); math.Float64bits(real(got)) != math.Float64bits(real(want)) ||
			math.Float64bits(imag(got)) != math.Float64bits(imag(want)) {
			t.Fatalf("after adding %v: slot %v, matrix %v", v, got, want)
		}
	}
}

func TestSharedPlanConcurrentDeterministic(t *testing.T) {
	// Many goroutines factoring value-variants of one pattern under one
	// shared plan must each get the value a serial run would produce.
	rng := rand.New(rand.NewSource(11))
	base := randomShared(rng, 14)
	variant := func(k int) *Matrix {
		m := base.Clone()
		m.Add(0, 0, complex(float64(k)*0.01, 0))
		return m
	}
	var sp SharedPlan
	var ws Workspace
	// Prime serially (as the batch layer does).
	if _, err := variant(0).FactorSharedInto(&sp, &ws); err != nil {
		t.Fatal(err)
	}
	const n = 64
	serial := make([]complex128, n)
	for k := 0; k < n; k++ {
		f, err := variant(k).FactorSharedInto(&sp, &ws)
		if err != nil {
			t.Fatal(err)
		}
		serial[k] = f.Det().Complex128()
	}
	parallel := make([]complex128, n)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var ws Workspace
			for k := w; k < n; k += 8 {
				f, err := variant(k).FactorSharedInto(&sp, &ws)
				if err != nil {
					t.Error(err)
					return
				}
				parallel[k] = f.Det().Complex128()
			}
		}(w)
	}
	wg.Wait()
	for k := 0; k < n; k++ {
		if serial[k] != parallel[k] {
			t.Fatalf("point %d: serial %v != parallel %v", k, serial[k], parallel[k])
		}
	}
}
