// Package mna implements modified nodal analysis over the full element
// set and the complex AC solve built on it.
//
// This is the module's "electrical simulator" substrate: the paper's
// Fig. 2 validates interpolated coefficients against a commercial
// simulator's AC analysis, which is exactly a per-frequency complex MNA
// assembly and sparse LU solve. It is also an independent implementation
// path from the nodal/cofactor pipeline, which makes cross-checks between
// the two meaningful tests.
package mna

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/interp"
	"repro/internal/sparse"
)

// stamp is one (row, col, value) contribution; sProp entries are
// multiplied by the complex frequency at evaluation time.
type stamp struct {
	i, j int
	v    float64
}

// System is an assembled MNA structure. Unknowns are the non-ground node
// voltages followed by one branch current per voltage-defined element
// (V sources, VCVS, CCVS, inductors).
//
// Stamps are kept in three classes so the matrix can be evaluated under
// the interpolation scale factors: conductance-dimension entries (R, G,
// VCCS — multiplied by the conductance scale), frequency-proportional
// entries (C, L — multiplied by s and the frequency scale), and
// structural entries (the ±1 couplings and dimensionless gains of
// voltage-defined branches — never scaled).
type System struct {
	c          *circuit.Circuit
	n          int // node count (non-ground)
	dim        int // n + branch count
	gDim       []stamp
	structural []stamp
	sProp      []stamp
	rhs        []float64
	branch     map[string]int // element name -> branch unknown index
	names      []string       // unknown labels for diagnostics
	// pat is the one MNA sparsity pattern with its shared plan, primed
	// by the first successful factorization of a generation run and
	// replayed read-only at every later point (see sparse.Pattern);
	// slots holds the value slot of each stamp of gDim, structural and
	// sProp, in that order. Both are held by reference so AdoptPlan can
	// share one plan across the Systems of a batch sweep.
	pat   *sparse.Pattern
	slots []int32

	// free is the workspace free list shared by every evaluator of the
	// system (they all factor the one MNA pattern).
	free interp.FreeList[sparse.Workspace]
}

// AdoptPlan shares the donor system's pivot-order plan with sys and
// reports whether the two systems are structurally identical (same
// dimension and stamp positions; values may differ). On a mismatch
// nothing is adopted. Like the plan itself the adoption is evaluation-
// safe, but the two systems must not be built up further afterwards.
func (sys *System) AdoptPlan(prev *System) bool {
	if prev == nil || sys.dim != prev.dim ||
		!sameStampPositions(sys.gDim, prev.gDim) ||
		!sameStampPositions(sys.structural, prev.structural) ||
		!sameStampPositions(sys.sProp, prev.sProp) {
		return false
	}
	sys.pat, sys.slots = prev.pat, prev.slots
	return true
}

// sameStampPositions reports whether two stamp lists touch the same
// matrix positions in the same order (values ignored).
func sameStampPositions(a, b []stamp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].i != b[i].i || a[i].j != b[i].j {
			return false
		}
	}
	return true
}

// Build assembles the MNA system. Every element kind in the circuit
// package is supported.
func Build(c *circuit.Circuit) (*System, error) {
	if err := c.Validate(); err != nil {
		return nil, err
	}
	n := c.NumNodes()
	sys := &System{c: c, n: n, branch: make(map[string]int)}
	// First pass: allocate branch unknowns for voltage-defined elements.
	dim := n
	for _, e := range c.Elements() {
		switch e.Kind {
		case circuit.VSource, circuit.VCVS, circuit.CCVS, circuit.Inductor:
			sys.branch[e.Name] = dim
			dim++
		}
	}
	sys.dim = dim
	sys.rhs = make([]float64, dim)
	sys.names = make([]string, dim)
	for i, name := range c.Nodes() {
		sys.names[i] = "V(" + name + ")"
	}
	for name, idx := range sys.branch {
		sys.names[idx] = "I(" + name + ")"
	}
	// Second pass: stamps.
	for _, e := range c.Elements() {
		p, q := c.NodeIndex(e.P), c.NodeIndex(e.N)
		switch e.Kind {
		case circuit.Resistor:
			g := 1 / e.Value
			if math.IsInf(g, 0) || math.IsNaN(g) {
				return nil, fmt.Errorf("mna: resistor %q value %g has no finite conductance", e.Name, e.Value)
			}
			sys.stampAdmittance(&sys.gDim, p, q, g)
		case circuit.Conductance:
			sys.stampAdmittance(&sys.gDim, p, q, e.Value)
		case circuit.Capacitor:
			sys.stampAdmittance(&sys.sProp, p, q, e.Value)
		case circuit.VCCS:
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			sys.stampVCCS(p, q, cp, cn, e.Value)
		case circuit.Inductor:
			br := sys.branch[e.Name]
			sys.stampBranchVoltage(br, p, q)
			sys.sProp = append(sys.sProp, stamp{br, br, -e.Value})
		case circuit.VSource:
			br := sys.branch[e.Name]
			sys.stampBranchVoltage(br, p, q)
			sys.rhs[br] = e.Value
		case circuit.VCVS:
			br := sys.branch[e.Name]
			sys.stampBranchVoltage(br, p, q)
			cp, cn := c.NodeIndex(e.CP), c.NodeIndex(e.CN)
			if cp >= 0 {
				sys.structural = append(sys.structural, stamp{br, cp, -e.Value})
			}
			if cn >= 0 {
				sys.structural = append(sys.structural, stamp{br, cn, e.Value})
			}
		case circuit.CCVS:
			br := sys.branch[e.Name]
			sys.stampBranchVoltage(br, p, q)
			ctrl := sys.branch[e.Ctrl]
			sys.structural = append(sys.structural, stamp{br, ctrl, -e.Value})
		case circuit.CCCS:
			ctrl := sys.branch[e.Ctrl]
			if p >= 0 {
				sys.structural = append(sys.structural, stamp{p, ctrl, e.Value})
			}
			if q >= 0 {
				sys.structural = append(sys.structural, stamp{q, ctrl, -e.Value})
			}
		case circuit.ISource:
			// Current e.Value flows from P through the source to N.
			if p >= 0 {
				sys.rhs[p] -= e.Value
			}
			if q >= 0 {
				sys.rhs[q] += e.Value
			}
		default:
			return nil, fmt.Errorf("mna: unsupported element kind %v", e.Kind)
		}
	}
	var rows, cols []int
	for _, list := range [][]stamp{sys.gDim, sys.structural, sys.sProp} {
		for _, st := range list {
			rows = append(rows, st.i)
			cols = append(cols, st.j)
		}
	}
	sys.pat, sys.slots = sparse.NewPattern(dim, rows, cols)
	return sys, nil
}

func (sys *System) stampAdmittance(list *[]stamp, p, n int, v float64) {
	if p >= 0 {
		*list = append(*list, stamp{p, p, v})
	}
	if n >= 0 {
		*list = append(*list, stamp{n, n, v})
	}
	if p >= 0 && n >= 0 {
		*list = append(*list, stamp{p, n, -v}, stamp{n, p, -v})
	}
}

func (sys *System) stampVCCS(p, n, cp, cn int, gm float64) {
	add := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			sys.gDim = append(sys.gDim, stamp{i, j, v})
		}
	}
	add(p, cp, gm)
	add(p, cn, -gm)
	add(n, cp, -gm)
	add(n, cn, gm)
}

// stampBranchVoltage adds the coupling pattern of a voltage-defined
// branch: KCL contributions of the branch current, and the KVL row
// selecting V(p) − V(n).
func (sys *System) stampBranchVoltage(br, p, n int) {
	if p >= 0 {
		sys.structural = append(sys.structural, stamp{p, br, 1}, stamp{br, p, 1})
	}
	if n >= 0 {
		sys.structural = append(sys.structural, stamp{n, br, -1}, stamp{br, n, -1})
	}
}

// Dim returns the number of unknowns.
func (sys *System) Dim() int { return sys.dim }

// UnknownNames returns the labels of the solution vector entries.
func (sys *System) UnknownNames() []string { return sys.names }

// MatrixAt assembles the complex MNA matrix at frequency s.
func (sys *System) MatrixAt(s complex128) *sparse.Matrix {
	m := sparse.New(sys.dim)
	for _, st := range sys.gDim {
		m.Add(st.i, st.j, complex(st.v, 0))
	}
	for _, st := range sys.structural {
		m.Add(st.i, st.j, complex(st.v, 0))
	}
	for _, st := range sys.sProp {
		m.Add(st.i, st.j, s*complex(st.v, 0))
	}
	return m
}

// Solve computes the full unknown vector at frequency s with the
// independent sources at their AC values.
func (sys *System) Solve(s complex128) ([]complex128, error) {
	b := make([]complex128, sys.dim)
	for i, v := range sys.rhs {
		b[i] = complex(v, 0)
	}
	x, err := sys.MatrixAt(s).Solve(b)
	if err != nil {
		return nil, fmt.Errorf("mna: solve at s=%v: %w", s, err)
	}
	return x, nil
}

// VoltageAt extracts a node voltage from a solution vector; ground
// returns 0.
func (sys *System) VoltageAt(x []complex128, node string) (complex128, error) {
	idx := sys.c.NodeIndex(node)
	switch idx {
	case -1:
		return 0, nil
	case -2:
		return 0, fmt.Errorf("mna: unknown node %q", node)
	}
	return x[idx], nil
}

// BranchCurrent extracts the current through a voltage-defined element.
func (sys *System) BranchCurrent(x []complex128, elemName string) (complex128, error) {
	br, ok := sys.branch[elemName]
	if !ok {
		return 0, fmt.Errorf("mna: element %q has no branch current (not voltage-defined)", elemName)
	}
	return x[br], nil
}

// ACPoint is one frequency-response sample.
type ACPoint struct {
	FreqHz float64
	V      complex128
}

// ACAnalysis sweeps node out over the given frequencies (Hz) and returns
// its complex voltage at each — the direct "electrical simulator"
// reference the paper compares against in Fig. 2.
func (sys *System) ACAnalysis(out string, freqsHz []float64) ([]ACPoint, error) {
	pts := make([]ACPoint, 0, len(freqsHz))
	for _, fHz := range freqsHz {
		s := complex(0, 2*math.Pi*fHz)
		x, err := sys.Solve(s)
		if err != nil {
			return nil, fmt.Errorf("mna: AC analysis at %g Hz: %w", fHz, err)
		}
		v, err := sys.VoltageAt(x, out)
		if err != nil {
			return nil, err
		}
		pts = append(pts, ACPoint{FreqHz: fHz, V: v})
	}
	return pts, nil
}
