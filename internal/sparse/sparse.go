// Package sparse implements a sparse complex LU solver with Markowitz
// pivoting, the formulation engine behind every interpolation-point
// evaluation (the paper: "the described algorithm has been implemented
// using sparse matrix techniques").
//
// Circuit matrices are extremely sparse (a handful of entries per row),
// and the reference generator factors the same pattern at dozens of
// interpolation points per iteration, so the work splits in two phases:
//
//   - Symbolic (once per pattern): pivots are chosen to minimize the
//     Markowitz count (r−1)(c−1) subject to a relative magnitude
//     threshold against the largest entry of the candidate's column,
//     which bounds element growth. The chosen order, its fill and every
//     elimination step are compiled into flat slot lists (Symbolic).
//   - Numeric (every point): the caller stamps values straight into a
//     flat []complex128 of slots and the compiled lists are replayed
//     over it, with no maps and no allocation.
package sparse

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"
	"slices"
	"sync/atomic"

	"repro/internal/xmath"
)

// ErrSingular is returned when factorization meets an exactly singular
// matrix.
var ErrSingular = errors.New("sparse: matrix is singular")

// ErrPlanMiss is returned when a compiled pivot order could not be
// replayed on a matrix: a planned pivot vanished or failed the stability
// guard, or the matrix has an entry outside the compiled pattern. The
// caller falls back to a full factorization (FactorInPlace).
var ErrPlanMiss = errors.New("sparse: planned pivot order failed on this matrix")

// DefaultThreshold is the relative pivot magnitude threshold u: a pivot
// candidate must satisfy |a| ≥ u·max|column|. 0.1 is the customary
// compromise between sparsity and stability (Duff/Erisman/Reid).
const DefaultThreshold = 0.1

// guardRatio is the stability guard of a replay: a planned pivot smaller
// than guardRatio × the largest entry of its remaining row fails the
// replay with ErrPlanMiss.
const guardRatio = 1e-10

// Matrix is a square sparse complex matrix assembled by accumulation.
// It is the assembly container of the one-off callers (MatrixAt, Minor,
// Det, Solve); the per-point evaluation paths stamp into a Pattern's
// flat slots instead.
type Matrix struct {
	n    int
	rows []map[int]complex128
}

// New returns an n×n zero matrix.
func New(n int) *Matrix {
	if n < 0 {
		panic("sparse: negative dimension")
	}
	rows := make([]map[int]complex128, n)
	for i := range rows {
		rows[i] = make(map[int]complex128, 8)
	}
	return &Matrix{n: n, rows: rows}
}

// N returns the dimension.
func (m *Matrix) N() int { return m.n }

// Add accumulates v into element (i, j); exact cancellations remove the
// entry so the pattern stays tight.
func (m *Matrix) Add(i, j int, v complex128) {
	if v == 0 {
		return
	}
	nv := m.rows[i][j] + v
	if nv == 0 {
		delete(m.rows[i], j)
		return
	}
	m.rows[i][j] = nv
}

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v complex128) {
	if v == 0 {
		delete(m.rows[i], j)
		return
	}
	m.rows[i][j] = v
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) complex128 { return m.rows[i][j] }

// NNZ returns the number of stored nonzeros.
func (m *Matrix) NNZ() int {
	t := 0
	for _, r := range m.rows {
		t += len(r)
	}
	return t
}

// Clone returns a deep copy.
func (m *Matrix) Clone() *Matrix {
	c := New(m.n)
	for i, r := range m.rows {
		for j, v := range r {
			c.rows[i][j] = v
		}
	}
	return c
}

// Minor returns the matrix with the given rows and columns removed.
func (m *Matrix) Minor(rows, cols []int) *Matrix {
	dropRow := make(map[int]bool, len(rows))
	for _, r := range rows {
		dropRow[r] = true
	}
	dropCol := make(map[int]bool, len(cols))
	for _, c := range cols {
		dropCol[c] = true
	}
	rowMap := make([]int, m.n) // old -> new
	oi := 0
	for i := 0; i < m.n; i++ {
		if dropRow[i] {
			rowMap[i] = -1
			continue
		}
		rowMap[i] = oi
		oi++
	}
	colMap := make([]int, m.n)
	oj := 0
	for j := 0; j < m.n; j++ {
		if dropCol[j] {
			colMap[j] = -1
			continue
		}
		colMap[j] = oj
		oj++
	}
	out := New(m.n - len(rows))
	for i, r := range m.rows {
		ni := rowMap[i]
		if ni < 0 {
			continue
		}
		for j, v := range r {
			if nj := colMap[j]; nj >= 0 {
				out.rows[ni][nj] = v
			}
		}
	}
	return out
}

// Det computes the determinant by Markowitz-pivoted elimination with the
// default stability threshold. The receiver is not modified. A singular
// matrix yields exactly zero.
func (m *Matrix) Det() xmath.XComplex {
	f, err := m.FactorInPlace(DefaultThreshold)
	if err != nil {
		return xmath.XComplex{}
	}
	return f.Det()
}

// Solve factors the matrix and solves A·x = b.
func (m *Matrix) Solve(b []complex128) ([]complex128, error) {
	f, err := m.FactorInPlace(DefaultThreshold)
	if err != nil {
		return nil, err
	}
	return f.Solve(b)
}

// FactorInPlace runs the full Markowitz factorization (the symbolic
// phase, see analyze) of the matrix's nonzero pattern. The receiver is
// not modified.
func (m *Matrix) FactorInPlace(threshold float64) (*LU, error) {
	var rows, cols []int32
	var vals []complex128
	for i, r := range m.rows {
		start := len(cols)
		for j := range r {
			cols = append(cols, int32(j))
		}
		slices.Sort(cols[start:])
		for _, j := range cols[start:] {
			rows = append(rows, int32(i))
			vals = append(vals, r[int(j)])
		}
	}
	_, f, err := analyze(m.n, rows, cols, vals, threshold)
	return f, err
}

// FactorSharedInto factors the matrix under the shared plan: when the
// plan is primed it scatters the entries into ws's slots and replays the
// compiled elimination (allocation-free; the returned LU aliases ws and
// is valid until ws's next factorization), returning ErrPlanMiss when the
// replay fails or an entry lies outside the compiled pattern; otherwise
// it full-factors and primes the plan. The receiver is not modified.
func (m *Matrix) FactorSharedInto(sp *SharedPlan, ws *Workspace) (*LU, error) {
	if sp == nil {
		return m.FactorInPlace(DefaultThreshold)
	}
	sym := sp.sym.Load()
	if sym == nil {
		f, err := m.FactorInPlace(DefaultThreshold)
		if err == nil {
			f.sym.index()
			sp.sym.CompareAndSwap(nil, f.sym)
		}
		return f, err
	}
	if sym.n != m.n {
		return m.FactorInPlace(DefaultThreshold)
	}
	if ws == nil {
		ws = new(Workspace)
	}
	a := grow(&ws.vals, len(sym.row))
	for i, r := range m.rows {
		lo, hi := sym.rowPtr[i], sym.rowPtr[i+1]
		found := 0
		for k, j := range sym.byRowCol[lo:hi] {
			if v, ok := r[int(j)]; ok {
				a[sym.byRow[int(lo)+k]] = v
				found++
			}
		}
		if found != len(r) { // an entry outside the compiled pattern
			return nil, ErrPlanMiss
		}
	}
	return sym.replay(a, ws)
}

// SharedPlan is a concurrency-safe holder of the compiled elimination of
// one sparsity pattern — the batched point-evaluation layer factors the
// same circuit pattern at every interpolation point of every frame of a
// generation run.
//
// It is primed exactly once, by the first successful full factorization,
// and never changed afterwards: later factorizations replay the compiled
// order read-only and fall back to a private full Markowitz factorization
// when a planned pivot vanishes or goes numerically unsafe. Because the
// plan is immutable after priming, the result for a given matrix is a
// pure function of the matrix and the plan — independent of evaluation
// order and goroutine scheduling — which is what makes serial and
// parallel batched runs bit-identical.
type SharedPlan struct {
	sym atomic.Pointer[Symbolic]
}

// Primed reports whether a pivot order has been compiled. Batch runners
// use it to keep evaluating serially until the plan exists, so that the
// point that primes the plan is the same in serial and parallel runs.
func (sp *SharedPlan) Primed() bool { return sp.sym.Load() != nil }

// Pattern is the fixed structure of a family of same-shaped matrices —
// the projected stamp positions of one circuit determinant — plus the
// shared plan the first successful factorization primes it with. Values
// are stamped into a flat slice with one slot per distinct position
// (Workspace.Stamps, Add) and factored with Factor.
type Pattern struct {
	n        int
	row, col []int32 // position of each stamp slot
	plan     SharedPlan
}

// NewPattern numbers the distinct positions (rows[k], cols[k]) of an n×n
// matrix in first-use order. It returns the pattern and the slot of each
// input position, −1 where the row or column is negative (deleted by a
// projection).
func NewPattern(n int, rows, cols []int) (*Pattern, []int32) {
	// Group the inputs by row (a counting sort), then number each row's
	// distinct columns in first-use order.
	slot := make([]int32, len(rows))
	start := make([]int, n+1)
	for k, i := range rows {
		if i >= 0 && cols[k] >= 0 {
			start[i+1]++
		}
	}
	for i := 0; i < n; i++ {
		start[i+1] += start[i]
	}
	order := make([]int, start[n])
	next := slices.Clone(start[:n])
	for k, i := range rows {
		if i < 0 || cols[k] < 0 {
			slot[k] = -1
			continue
		}
		order[next[i]] = k
		next[i]++
	}
	p := &Pattern{n: n}
	mark := next // reused: col → slot within the current row
	for j := range mark {
		mark[j] = -1
	}
	for i := 0; i < n; i++ {
		ks := order[start[i]:start[i+1]]
		for _, k := range ks {
			j := cols[k]
			if mark[j] < 0 {
				mark[j] = len(p.row)
				p.row = append(p.row, int32(i))
				p.col = append(p.col, int32(j))
			}
			slot[k] = int32(mark[j])
		}
		for _, k := range ks {
			mark[cols[k]] = -1
		}
	}
	return p, slot
}

// Primed reports whether the pattern's plan has been compiled.
func (p *Pattern) Primed() bool { return p.plan.Primed() }

// Factor factors the matrix whose stamp-slot values are b (from
// ws.Stamps): it replays the compiled plan when primed, falling back to
// a private full factorization on a plan miss without touching the plan;
// otherwise it full-factors and primes. b is not modified. A replayed LU
// aliases ws and is valid until ws's next factorization; once primed, a
// successful replay allocates nothing.
func (p *Pattern) Factor(b []complex128, ws *Workspace) (*LU, error) {
	if sym := p.plan.sym.Load(); sym != nil {
		a := grow(&ws.vals, len(sym.row))
		copy(a, b)
		if f, err := sym.replay(a, ws); err == nil {
			return f, nil
		}
		_, f, err := analyze(p.n, p.row, p.col, b, DefaultThreshold)
		return f, err
	}
	sym, f, err := analyze(p.n, p.row, p.col, b, DefaultThreshold)
	if err != nil {
		return nil, err
	}
	p.plan.sym.CompareAndSwap(nil, sym)
	return f, nil
}

// Add accumulates v into slot s of stamped values with Matrix.Add's
// arithmetic: a zero v is skipped and an exact cancellation leaves +0,
// so the slots hold bitwise what an assembled Matrix would.
func Add(b []complex128, s int32, v complex128) {
	if v == 0 {
		return
	}
	nv := b[s] + v
	if nv == 0 {
		nv = 0
	}
	b[s] = nv
}

// Workspace holds reusable factorization and solve storage: the stamp
// slots, the frame-constant stamps kept by KeepPrestamps, the slot
// values being factored (stamps plus fill, multipliers overwriting the
// eliminated entries), the forward-substitution vector and a solve's
// right-hand side and solution. A Workspace is not safe for concurrent
// use; the batched evaluation layer keeps one per worker. Its zero value
// is ready to use.
type Workspace struct {
	lu       LU
	stamp    []complex128
	vals     []complex128
	fwd      []complex128
	rhs, sol []complex128

	// pre holds the stamp slots of prePat after the frame-constant
	// stamps of (preOwner, preKey); preOK reports that it is complete.
	pre      []complex128
	prePat   *Pattern
	preOwner any
	preKey   uint64
	preOK    bool
}

// Stamps returns ws's stamp slots for p, zeroed, for the caller to
// accumulate values into with Add before calling p.Factor.
func (ws *Workspace) Stamps(p *Pattern) []complex128 { return grow(&ws.stamp, len(p.row)) }

// Prestamps is Stamps for matrices whose stamps split into a
// frame-constant part, identified by (owner, key), and the rest. When ws
// kept that part for p (KeepPrestamps after an earlier miss), the slots
// start from it and kept is true; the caller adds only the rest, in the
// same order as always, so every slot is bitwise what stamping from zero
// gives. Otherwise the slots are zeroed and the caller adds the
// frame-constant stamps, calls KeepPrestamps, then adds the rest.
func (ws *Workspace) Prestamps(p *Pattern, owner any, key uint64) (b []complex128, kept bool) {
	if ws.preOK && ws.prePat == p && ws.preOwner == owner && ws.preKey == key {
		b = ws.stamp[:len(p.row)]
		copy(b, ws.pre)
		return b, true
	}
	ws.preOK, ws.prePat, ws.preOwner, ws.preKey = false, p, owner, key
	return ws.Stamps(p), false
}

// KeepPrestamps records the stamp slots of the last Prestamps miss as
// its frame-constant part.
func (ws *Workspace) KeepPrestamps() {
	n := len(ws.prePat.row)
	if cap(ws.pre) < n {
		ws.pre = make([]complex128, n)
	}
	ws.pre = ws.pre[:n]
	copy(ws.pre, ws.stamp[:n])
	ws.preOK = true
}

// SolveVectors returns ws's right-hand-side vector, zeroed, and its
// solution vector, both of length n, for a SolveInto with ws.
func (ws *Workspace) SolveVectors(n int) (rhs, sol []complex128) {
	return grow(&ws.rhs, n), grow(&ws.sol, n)
}

// grow returns (*buf)[:n] zeroed, reallocating only when n exceeds every
// previous request.
func grow(buf *[]complex128, n int) []complex128 {
	if cap(*buf) < n {
		*buf = make([]complex128, n)
	}
	b := (*buf)[:n]
	clear(b)
	return b
}

// Symbolic is one sparsity pattern compiled for one pivot order: every
// slot's position (the stamp slots first, then the fill), and per
// elimination step the pivot slot, the column-sorted U-row slots, the
// L-column slots and, per L slot, the slots its row update writes.
// It is immutable once built and shared read-only between workers.
type Symbolic struct {
	n        int
	row, col []int32 // position of every slot
	// rowPtr, byRow and byRowCol list each row's slots and their columns
	// — slots of row i are byRow[rowPtr[i]:rowPtr[i+1]] — for scattering
	// a Matrix; only plans primed through FactorSharedInto build them.
	rowPtr   []int32
	byRow    []int32
	byRowCol []int32
	pivRow   []int
	pivCol   []int
	piv      []int32 // pivot slot of step k
	uPtr     []int32 // U row of step k, pivot excluded: u[uPtr[k]:uPtr[k+1]]
	u        []int32
	lPtr     []int32 // L column of step k: l[lPtr[k]:lPtr[k+1]]
	l        []int32
	// dst holds one block of len(U row) targets per L slot, in step then
	// L order: the L slot's row entry in the column of each U slot.
	dst  []int32
	sign int
}

// analyze is the symbolic phase: Markowitz-pivoted Gaussian elimination
// of the n×n matrix with value b[s] at (rows[s], cols[s]), compiled into
// a Symbolic as it goes. At each step the pivot with minimal Markowitz
// count (r−1)(c−1) is chosen among nonzero entries passing
// |a| ≥ threshold·max|column|; ties break toward larger magnitude, then
// toward the smallest (row, column) pair, so the chosen pivot sequence —
// and with it every rounded intermediate — is a pure function of the
// values. Exact zeros are not counted and not eliminated, but the fill
// is recorded for every structural position, so any matrix stamped into
// the same positions replays on the result. It returns the Symbolic and
// the factorization of b.
func analyze(n int, rows, cols []int32, b []complex128, threshold float64) (*Symbolic, *LU, error) {
	ns := len(b)
	room := ns + ns/2 + n // stamps plus typical fill; append grows past it
	sym := &Symbolic{
		n:      n,
		row:    append(make([]int32, 0, room), rows...),
		col:    append(make([]int32, 0, room), cols...),
		pivRow: make([]int, 0, n),
		pivCol: make([]int, 0, n),
		piv:    make([]int32, 0, n),
		uPtr:   append(make([]int32, 0, n+1), 0),
		lPtr:   append(make([]int32, 0, n+1), 0),
	}
	a := append(make([]complex128, 0, room), b...)
	mag := make([]float64, ns, room) // |a[s]|, kept current for the pivot search
	rowCount := make([]int, n)       // nonzeros per active row over active columns
	colCount := make([]int, n)       // nonzeros per active column over active rows
	for s, v := range a {
		mag[s] = cmplx.Abs(v)
		if v != 0 {
			rowCount[rows[s]]++
			colCount[cols[s]]++
		}
	}
	byRow := bucket(n, rows) // structural slots of each active row, active columns only
	byCol := bucket(n, cols) // structural slots of each column
	rowActive := make([]bool, n)
	colMax := make([]float64, n)
	colMaxAt := make([]int, n) // step+1 at which colMax[j] was computed
	mark := make([]int32, n)
	for i := range rowActive {
		rowActive[i], mark[i] = true, -1
	}
	for step := 0; step < n; step++ {
		// Pivot search. A candidate whose cost exceeds the best so far
		// cannot win, so only the others need the column maximum of the
		// threshold test, computed once per column and step.
		bestCost := int(^uint(0) >> 1)
		bestAbs := 0.0
		bi, bj, bs := -1, -1, int32(-1)
		for i, rs := range byRow {
			if !rowActive[i] {
				continue
			}
			rc := rowCount[i]
			for _, s := range rs {
				if a[s] == 0 {
					continue
				}
				j := int(sym.col[s])
				cost := (rc - 1) * (colCount[j] - 1)
				if cost > bestCost {
					continue
				}
				if colMaxAt[j] != step+1 {
					colMaxAt[j] = step + 1
					colMax[j] = 0
					for _, t := range byCol[j] {
						if rowActive[sym.row[t]] && mag[t] > colMax[j] {
							colMax[j] = mag[t]
						}
					}
				}
				m := mag[s]
				if m < threshold*colMax[j] {
					continue
				}
				better := cost < bestCost ||
					(cost == bestCost && (m > bestAbs ||
						(m == bestAbs && (bi < 0 || i < bi || (i == bi && j < bj)))))
				if better {
					bestCost, bestAbs, bi, bj, bs = cost, m, i, j, s
				}
			}
		}
		if bi < 0 {
			return nil, nil, ErrSingular
		}
		piv := a[bs]
		sym.pivRow = append(sym.pivRow, bi)
		sym.pivCol = append(sym.pivCol, bj)
		sym.piv = append(sym.piv, bs)
		u0 := len(sym.u)
		for _, s := range byRow[bi] {
			if a[s] != 0 {
				colCount[sym.col[s]]--
			}
			if s != bs {
				sym.u = append(sym.u, s)
			}
		}
		us := sym.u[u0:]
		slices.SortFunc(us, func(x, y int32) int { return int(sym.col[x] - sym.col[y]) })
		sym.uPtr = append(sym.uPtr, int32(len(sym.u)))
		rowActive[bi] = false
		for _, ls := range byCol[bj] {
			i := sym.row[ls]
			if !rowActive[i] {
				continue
			}
			sym.l = append(sym.l, ls)
			rs := byRow[i]
			k := slices.Index(rs, ls)
			rs[k] = rs[len(rs)-1]
			rs = rs[:len(rs)-1]
			for _, s := range rs {
				mark[sym.col[s]] = s
			}
			d0 := len(sym.dst)
			for _, s := range us {
				c := sym.col[s]
				t := mark[c]
				if t < 0 { // fill
					t = int32(len(a))
					a = append(a, 0)
					mag = append(mag, 0)
					sym.row = append(sym.row, i)
					sym.col = append(sym.col, c)
					rs = append(rs, t)
					byCol[c] = append(byCol[c], t)
				}
				sym.dst = append(sym.dst, t)
			}
			byRow[i] = rs
			for _, s := range rs {
				mark[sym.col[s]] = -1
			}
			fv := a[ls]
			if fv == 0 {
				continue
			}
			rowCount[i]--
			mult := fv / piv
			a[ls] = mult
			for q, s := range us {
				v := a[s]
				if v == 0 {
					continue
				}
				t := sym.dst[d0+q]
				old := a[t]
				nv := old - mult*v
				if nv == 0 {
					nv = 0
				}
				a[t] = nv
				mag[t] = cmplx.Abs(nv)
				if (old == 0) != (nv == 0) {
					d := 1
					if nv == 0 {
						d = -1
					}
					rowCount[i] += d
					colCount[sym.col[t]] += d
				}
			}
		}
		sym.lPtr = append(sym.lPtr, int32(len(sym.l)))
	}
	sym.sign = parity(sym.pivRow) * parity(sym.pivCol)
	return sym, &LU{sym: sym, a: a}, nil
}

// bucket groups the slots by key (their row or column), each bucket
// carved from one backing array with room for fill.
func bucket(n int, key []int32) [][]int32 {
	size := make([]int, n)
	for _, i := range key {
		size[i]++
	}
	backing := make([]int32, 0, 2*len(key)+4*n)
	lists := make([][]int32, n)
	for i, k := range size {
		lo := len(backing)
		backing = backing[:lo+2*k+4]
		lists[i] = backing[lo:lo:len(backing)]
	}
	for s, i := range key {
		lists[i] = append(lists[i], int32(s))
	}
	return lists
}

// index builds the row-wise slot lists used to scatter a Matrix.
func (sym *Symbolic) index() {
	sym.rowPtr = make([]int32, sym.n+1)
	for _, i := range sym.row {
		sym.rowPtr[i+1]++
	}
	for i := 0; i < sym.n; i++ {
		sym.rowPtr[i+1] += sym.rowPtr[i]
	}
	next := slices.Clone(sym.rowPtr[:sym.n])
	sym.byRow = make([]int32, len(sym.row))
	sym.byRowCol = make([]int32, len(sym.row))
	for s, i := range sym.row {
		sym.byRow[next[i]] = int32(s)
		sym.byRowCol[next[i]] = sym.col[s]
		next[i]++
	}
}

// replay is the numeric phase: it eliminates the slot values a in the
// compiled order — the same per-entry recurrence as analyze, with exact
// zeros skipped where the analysis would have had no entry — and
// returns the factorization in ws's LU, or ErrPlanMiss when a planned
// pivot is zero or fails the guardRatio test against its row.
func (sym *Symbolic) replay(a []complex128, ws *Workspace) (*LU, error) {
	d := 0
	for k, ps := range sym.piv {
		piv := a[ps]
		if piv == 0 {
			return nil, ErrPlanMiss
		}
		us := sym.u[sym.uPtr[k]:sym.uPtr[k+1]]
		if guardFails(piv, us, a) {
			return nil, ErrPlanMiss
		}
		for _, ls := range sym.l[sym.lPtr[k]:sym.lPtr[k+1]] {
			ds := sym.dst[d : d+len(us)]
			d += len(us)
			fv := a[ls]
			if fv == 0 {
				continue
			}
			mult := fv / piv
			a[ls] = mult
			for q, s := range us {
				v := a[s]
				if v == 0 {
					continue
				}
				t := ds[q]
				nv := a[t] - mult*v
				if nv == 0 {
					nv = 0
				}
				a[t] = nv
			}
		}
	}
	ws.lu = LU{sym: sym, a: a}
	return &ws.lu, nil
}

// guardFails reports whether |piv| < guardRatio·max|row|, the row being
// the pivot and its U slots. A first test of max(|re|,|im|) ≤ |piv|
// against the bound max(|re|+|im|) ≥ max|v| accepts the common,
// far-from-failing pivot without a square root; only a pivot it cannot
// accept pays for |piv|, in the same bound test and then the exact one.
func guardFails(piv complex128, us []int32, a []complex128) bool {
	pm := math.Abs(real(piv))
	if im := math.Abs(imag(piv)); im > pm {
		pm = im
	}
	if pm >= 2*guardRatio*rowBound(pm, us, a) {
		return false
	}
	pa := cmplx.Abs(piv)
	if pa >= 2*guardRatio*rowBound(pa, us, a) {
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

// rowBound returns the running max of bound and |re|+|im| over the U
// slots us.
func rowBound(bound float64, us []int32, a []complex128) float64 {
	for _, s := range us {
		v := a[s]
		if m := math.Abs(real(v)) + math.Abs(imag(v)); !(m <= bound) {
			bound = m
		}
	}
	return bound
}

// LU is a sparse factorization with full (row and column) pivoting,
// P·A·Q = L·U: the compiled Symbolic plus the eliminated slot values
// (U rows in place, multipliers in the L slots). Back-substitution
// accumulates each U row in column order, so repeated factorizations of
// the same matrix yield bit-identical Solve results, which the parallel
// batched evaluation layer relies on.
type LU struct {
	sym *Symbolic
	a   []complex128
}

// Det returns the determinant as an extended-range complex number: the
// signed product of the pivots.
func (f *LU) Det() xmath.XComplex {
	det := xmath.FromComplex(complex(float64(f.sym.sign), 0))
	for _, s := range f.sym.piv {
		det = det.MulComplex(f.a[s])
	}
	return det
}

// Solve solves A·x = b by replaying the elimination on the right-hand
// side (forward pass) and back-substituting through the U rows.
func (f *LU) Solve(b []complex128) ([]complex128, error) {
	x := make([]complex128, f.sym.n)
	return x, f.solve(x, b, make([]complex128, f.sym.n))
}

// SolveInto solves A·x = b into dst without allocating once ws has
// grown to the dimension. dst and b may be the same slice.
func (f *LU) SolveInto(dst, b []complex128, ws *Workspace) error {
	return f.solve(dst, b, grow(&ws.fwd, f.sym.n))
}

func (f *LU) solve(x, b, y []complex128) error {
	sym, a := f.sym, f.a
	if len(b) != sym.n || len(x) != sym.n {
		return fmt.Errorf("sparse: rhs/dst length %d/%d, want %d", len(b), len(x), sym.n)
	}
	copy(y, b)
	for k, r := range sym.pivRow {
		pv := y[r]
		if pv == 0 {
			continue
		}
		for _, ls := range sym.l[sym.lPtr[k]:sym.lPtr[k+1]] {
			if m := a[ls]; m != 0 {
				y[sym.row[ls]] -= m * pv
			}
		}
	}
	for k := sym.n - 1; k >= 0; k-- {
		sum := y[sym.pivRow[k]]
		for _, s := range sym.u[sym.uPtr[k]:sym.uPtr[k+1]] {
			if v := a[s]; v != 0 {
				sum -= v * x[sym.col[s]]
			}
		}
		x[sym.pivCol[k]] = sum / a[sym.piv[k]]
	}
	return nil
}

// parity returns the sign (+1/−1) of the permutation given as a sequence
// of images, via cycle counting.
func parity(perm []int) int {
	n := len(perm)
	seen := make([]bool, n)
	sign := 1
	for i := 0; i < n; i++ {
		if seen[i] {
			continue
		}
		length := 0
		j := i
		for !seen[j] {
			seen[j] = true
			j = perm[j]
			length++
		}
		if length%2 == 0 {
			sign = -sign
		}
	}
	return sign
}
