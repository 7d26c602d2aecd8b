package mna

import (
	"testing"

	"repro/internal/circuit"
	"repro/internal/dft"
)

// TestPrestampAdoptedPlan pins the frame-constant pre-stamp against plan
// sharing: two systems with the same stamp positions but different
// conductances share one plan through AdoptPlan and are evaluated
// interleaved at one gscale. Each determinant and transfer numerator
// must be bitwise those of a fresh system adopting the same plan.
func TestPrestampAdoptedPlan(t *testing.T) {
	build := func(k float64) *System {
		c := circuit.New("mna-prestamp")
		for _, e := range mnaBatchCircuit().Elements() {
			if e.Kind == circuit.Resistor {
				e.Value *= k
			}
			if err := c.AddElement(e); err != nil {
				t.Fatal(err)
			}
		}
		sys, err := Build(c)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	sa, sb := build(1), build(2.5)
	if !sb.AdoptPlan(sa) {
		t.Fatal("structurally identical systems did not share the plan")
	}
	f, g := 1e9, 1.0
	pts := dft.UnitCirclePoints(10)
	for _, s := range pts {
		for _, k := range []float64{1, 2.5, 2.5, 1} {
			sys := sa
			if k != 1 {
				sys = sb
			}
			fresh := build(k)
			fresh.AdoptPlan(sa)
			if got, want := sys.DetEvaluator().Eval(s, f, g), fresh.DetEvaluator().Eval(s, f, g); got != want {
				t.Fatalf("k=%g det at %v: %v, fresh system %v", k, s, got, want)
			}
			tf, err := sys.TransferEvaluators("out")
			if err != nil {
				t.Fatal(err)
			}
			ftf, err := fresh.TransferEvaluators("out")
			if err != nil {
				t.Fatal(err)
			}
			if got, want := tf.Num.Eval(s, f, g), ftf.Num.Eval(s, f, g); got != want {
				t.Fatalf("k=%g numerator at %v: %v, fresh system %v", k, s, got, want)
			}
		}
	}
}
