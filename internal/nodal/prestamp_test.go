package nodal

import (
	"context"
	"testing"

	"repro/internal/circuit"
	"repro/internal/dft"
	"repro/internal/sparse"
	"repro/internal/xmath"
)

// withConductances copies c with every conductance-dimension value
// (G, VCCS) multiplied by k: the same stamp positions, different
// frame-constant values.
func withConductances(c *circuit.Circuit, k float64) *circuit.Circuit {
	out := circuit.New(c.Name)
	for _, e := range c.Elements() {
		if e.Kind == circuit.Conductance || e.Kind == circuit.VCCS {
			e.Value *= k
		}
		if err := out.AddElement(e); err != nil {
			panic(err)
		}
	}
	return out
}

// TestPrestampSharedPatterns pins the frame-constant pre-stamp against
// pattern sharing: two systems with the same stamp positions but
// different conductances share patterns (and so workspace free lists)
// through AdoptPatterns and are evaluated interleaved at one gscale —
// serially and in batches. Every determinant must be bitwise the one a
// fresh workspace, stamping from zero, gives for its own system.
func TestPrestampSharedPatterns(t *testing.T) {
	sa, err := Build(batchCircuit())
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Build(withConductances(batchCircuit(), 1.7))
	if err != nil {
		t.Fatal(err)
	}
	if !sb.AdoptPatterns(sa) {
		t.Fatal("structurally identical systems did not share patterns")
	}
	f, g := 1e11, 1e3
	pts := dft.UnitCirclePoints(12)
	fresh := func(sys *System, pat *pattern, s complex128) xmath.XComplex {
		return sys.detAt(pat, new(sparse.Workspace), s, f, g)
	}
	for _, s := range pts {
		for _, sys := range []*System{sa, sb, sb, sa} {
			if got, want := sys.Det(s, f, g), fresh(sys, sys.detPattern(), s); got != want {
				t.Fatalf("Det at %v: %v, fresh workspace %v", s, got, want)
			}
			if got, want := sys.Cofactor(0, 2, s, f, g), fresh(sys, sys.cofactorPattern(0, 2), s); got != want {
				t.Fatalf("Cofactor at %v: %v, fresh workspace %v", s, got, want)
			}
		}
	}
	for _, sys := range []*System{sa, sb, sa, sb} {
		ev := sys.evaluator("det", sys.n, [2]int{-1, -1}, func() projection { return identityProjection(sys.n) })
		for _, workers := range []int{1, 3} {
			got := ev.EvalBatch(context.Background(), pts, f, g, workers)
			for i, s := range pts {
				if want := fresh(sys, sys.detPattern(), s); got[i] != want {
					t.Fatalf("workers=%d point %d: batch %v, fresh workspace %v", workers, i, got[i], want)
				}
			}
		}
	}
}
