package mna

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// This file implements the paper's §2 formulation (eqs. 7–10) directly:
// with the modified nodal equations Y_MNA·X = E, the denominator of any
// network function is
//
//	D(s_k) = det Y_MNA(s_k)                          (eq. 9)
//
// obtained from the LU factorization, and the numerator follows from the
// solved transfer value H(s_k) = X_out(s_k):
//
//	N(s_k) = H(s_k) · D(s_k)                          (eq. 10)
//
// Unlike the admittance-cofactor path (internal/nodal), this works for
// every element the MNA formulation supports — inductors, independent
// and controlled sources — at the price of the conductance-scaling law:
// MNA determinant terms mix admittance factors with the dimensionless
// ±1/gain entries of voltage-defined branches, so only frequency scaling
// transforms coefficients exactly (p'_i = p_i·f^i). Use the generator
// with Config.SingleFactor=true and leave the conductance scale at 1.

// factorAt stamps Y_MNA — conductance-dimension entries multiplied by
// gscale, frequency-proportional entries by s·fscale, structural entries
// untouched, in a fixed stamp order — into ws's slots and factors it
// under the system's shared plan (primed once per System by the first
// successful factorization; replayed read-only afterwards — across
// points, frames, and both the det and transfer evaluators, which share
// the one MNA sparsity pattern). The conductance and structural stamps
// are constant across a frame: ws keeps them per (System, gscale), so
// within a frame only the frequency-proportional stamps are added. Once
// the plan is primed the replay allocates nothing. A plan miss runs a
// private full factorization without touching the plan.
func (sys *System) factorAt(ws *sparse.Workspace, s complex128, fscale, gscale float64) (*sparse.LU, error) {
	b, kept := ws.Prestamps(sys.pat, sys, math.Float64bits(gscale))
	slots := sys.slots[len(sys.gDim)+len(sys.structural):]
	if !kept {
		slots = sys.slots
		for _, st := range sys.gDim {
			sparse.Add(b, slots[0], complex(st.v*gscale, 0))
			slots = slots[1:]
		}
		for _, st := range sys.structural {
			sparse.Add(b, slots[0], complex(st.v, 0))
			slots = slots[1:]
		}
		ws.KeepPrestamps()
	}
	sf := s * complex(fscale, 0)
	for _, st := range sys.sProp {
		sparse.Add(b, slots[0], sf*complex(st.v, 0))
		slots = slots[1:]
	}
	return sys.pat.Factor(b, ws)
}

// detAt evaluates D(s) = det Y_MNA(s), zero when singular.
func (sys *System) detAt(ws *sparse.Workspace, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(ws, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{}
	}
	return lu.Det()
}

// numAt evaluates N(s) = X_out(s)·det Y_MNA(s) per eqs. (8)–(10), with
// one factorization serving both the determinant and the solve.
func (sys *System) numAt(ws *sparse.Workspace, idx int, s complex128, fscale, gscale float64) xmath.XComplex {
	lu, err := sys.factorAt(ws, s, fscale, gscale)
	if err != nil {
		return xmath.XComplex{} // structurally singular: N ≡ 0 here
	}
	x, err := sys.solveSources(lu, ws)
	if err != nil {
		return xmath.XComplex{}
	}
	if cmplx.IsNaN(x[idx]) || cmplx.IsInf(x[idx]) {
		return xmath.XComplex{}
	}
	return lu.Det().MulComplex(x[idx])
}

// solveSources solves Y_MNA·x = E, the independent sources at their AC
// values, into ws's solution vector.
func (sys *System) solveSources(lu *sparse.LU, ws *sparse.Workspace) ([]complex128, error) {
	b, x := ws.SolveVectors(sys.dim)
	for i, v := range sys.rhs {
		b[i] = complex(v, 0)
	}
	return x, lu.SolveInto(x, b, ws)
}

// evaluator wraps a per-point function of (workspace, s, fscale,
// gscale) as an interp.Evaluator: the serial Eval draws its workspace
// from the system's free list per point (allocation-free in the steady
// state), and EvalBatch fans out over per-worker pooled workspaces —
// returned when the batch drains — after serially priming the shared
// pivot plan.
func (sys *System) evaluator(name string, bound int, at func(ws *sparse.Workspace, s complex128, fscale, gscale float64) xmath.XComplex) interp.Evaluator {
	return interp.Evaluator{
		Name:       name,
		M:          0,
		OrderBound: bound,
		Eval: func(s complex128, fscale, gscale float64) xmath.XComplex {
			ws := sys.free.Get()
			v := at(ws, s, fscale, gscale)
			sys.free.Put(ws)
			return v
		},
		EvalBatch: func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			return interp.RunPooled(ctx, points, workers, sys.pat.Primed, &sys.free, func(ws *sparse.Workspace, s complex128) xmath.XComplex {
				return at(ws, s, fscale, gscale)
			})
		},
	}
}

// OrderBound returns the a-priori bound on the polynomial order of the
// MNA determinant: the number of frequency-dependent elements.
func (sys *System) OrderBound() int {
	n := 0
	for _, e := range sys.c.Elements() {
		switch e.Kind {
		case circuit.Capacitor, circuit.Inductor:
			n++
		}
	}
	return n
}

// DetEvaluator returns the evaluator for D(s) = det Y_MNA(s) (eq. 9).
// Only frequency scaling is exact for MNA matrices; the evaluator
// reports M = 0 and expects the conductance scale to stay 1 (enforce
// with core.Config.SingleFactor).
func (sys *System) DetEvaluator() interp.Evaluator {
	return sys.evaluator("denominator", sys.OrderBound(), sys.detAt)
}

// TransferEvaluators returns the numerator and denominator evaluators of
// the network function from the circuit's independent sources (at their
// AC values) to the voltage at node out, per eqs. (8)–(10). The circuit
// must contain at least one independent source.
func (sys *System) TransferEvaluators(out string) (*interp.TransferFunction, error) {
	idx := sys.c.NodeIndex(out)
	if idx == -2 {
		return nil, fmt.Errorf("mna: unknown node %q", out)
	}
	if idx == -1 {
		return nil, fmt.Errorf("mna: output node is ground")
	}
	hasSource := false
	for _, e := range sys.c.Elements() {
		if (e.Kind == circuit.VSource || e.Kind == circuit.ISource) && e.Value != 0 {
			hasSource = true
			break
		}
	}
	if !hasSource {
		return nil, fmt.Errorf("mna: no independent source with nonzero AC value")
	}
	bound := sys.OrderBound()
	num := sys.evaluator("numerator", bound, func(ws *sparse.Workspace, s complex128, fscale, gscale float64) xmath.XComplex {
		return sys.numAt(ws, idx, s, fscale, gscale)
	})
	tf := &interp.TransferFunction{
		Name: fmt.Sprintf("V(%s)/source", out),
		Num:  num,
		Den:  sys.evaluator("denominator", bound, sys.detAt),
	}
	// Joint mode: eqs. (8)–(10) already obtain N from the same
	// factorization that gives D = det Y_MNA, so EvalBoth is the numAt
	// computation with the determinant reported alongside.
	tf.EvalBoth = func(s complex128, fscale, gscale float64) (n, d xmath.XComplex) {
		ws := sys.free.Get()
		defer sys.free.Put(ws)
		lu, err := sys.factorAt(ws, s, fscale, gscale)
		if err != nil {
			return xmath.XComplex{}, xmath.XComplex{}
		}
		det := lu.Det()
		x, err := sys.solveSources(lu, ws)
		if err != nil {
			return xmath.XComplex{}, det
		}
		if cmplx.IsNaN(x[idx]) || cmplx.IsInf(x[idx]) {
			return xmath.XComplex{}, det
		}
		return det.MulComplex(x[idx]), det
	}
	tf.BothReady = sys.pat.Primed
	return tf, nil
}
