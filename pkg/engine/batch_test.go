package engine

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
)

func ladderSpec(n int) (c *Circuit, spec Spec) {
	return circuits.RCLadder(n, 1e3, 1e-9), Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(n)}
}

func TestGenerateBatchValidation(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	if _, err := eng.GenerateBatch(context.Background(), BatchRequest{Spec: spec, Points: []BatchPoint{{}}}); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec}); err == nil {
		t.Error("empty point list accepted")
	}
	// A bad spec kind resolves a backend but fails formulation — that is
	// a per-point failure, not a request error.
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: Spec{Kind: "zz"}, Points: []BatchPoint{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 1 || resp.Points[0].Err == nil {
		t.Errorf("bad spec kind: Failures=%d Err=%v, want per-point failure", resp.Failures, resp.Points[0].Err)
	}
}

// TestGenerateBatchBadPoints pins the per-point failure contract: a bad
// point records its error and the sweep continues.
func TestGenerateBatchBadPoints(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{
		Circuit: ckt,
		Spec:    spec,
		Points: []BatchPoint{
			{Scale: map[string]float64{"nope1": 1.1, "nope2": 0.9}},
			{Scale: map[string]float64{"r1": math.NaN()}},
			{Scale: map[string]float64{"r1": 1.05}},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 2 {
		t.Errorf("Failures = %d, want 2", resp.Failures)
	}
	if got := resp.Points[0].Err; got == nil || !strings.Contains(got.Error(), "unknown elements [nope1 nope2]") {
		t.Errorf("unknown-element error = %v", got)
	}
	if got := resp.Points[1].Err; got == nil || !strings.Contains(got.Error(), "non-finite factor") {
		t.Errorf("non-finite factor error = %v", got)
	}
	if resp.Points[2].Err != nil {
		t.Errorf("good point after bad ones failed: %v", resp.Points[2].Err)
	}
	if resp.SolvesPerPoint() <= 0 {
		t.Error("SolvesPerPoint not computed over the surviving point")
	}
}

// TestGenerateBatchWarmProvenance pins the counter semantics: the first
// point is cold by construction and counts toward neither counter; every
// later point of a gentle sweep warm-starts.
func TestGenerateBatchWarmProvenance(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(6)
	points := []BatchPoint{
		{},
		{Scale: map[string]float64{"r1": 1.02, "c3": 0.98}},
		{Scale: map[string]float64{"r2": 0.97}},
	}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 0 {
		t.Fatalf("Failures = %d: %+v", resp.Failures, resp.Points)
	}
	if p := resp.Points[0]; p.Warm || p.ColdFallback != "" {
		t.Errorf("first point: Warm=%v ColdFallback=%q, want cold with no fallback reason", p.Warm, p.ColdFallback)
	}
	for _, p := range resp.Points[1:] {
		if !p.Warm {
			t.Errorf("point %d did not warm-start (fallback: %q)", p.Index, p.ColdFallback)
		}
		if p.Solves >= resp.Points[0].Solves {
			t.Errorf("point %d solves = %d, not below the cold first point's %d", p.Index, p.Solves, resp.Points[0].Solves)
		}
	}
	if resp.WarmStarts != 2 || resp.ColdFallbacks != 0 {
		t.Errorf("WarmStarts=%d ColdFallbacks=%d, want 2/0", resp.WarmStarts, resp.ColdFallbacks)
	}
	var solves int
	for _, p := range resp.Points {
		solves += p.Solves
	}
	if solves != resp.TotalSolves {
		t.Errorf("TotalSolves=%d but per-point sum=%d", resp.TotalSolves, solves)
	}
}

// TestGenerateBatchNoWarmStart pins the ablation switch: every point
// runs cold and the counters stay zero.
func TestGenerateBatchNoWarmStart(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(6)
	points := []BatchPoint{{}, {Scale: map[string]float64{"r1": 1.02}}}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: points, NoWarmStart: true})
	if err != nil {
		t.Fatal(err)
	}
	if resp.WarmStarts != 0 || resp.ColdFallbacks != 0 {
		t.Errorf("ablation sweep counted WarmStarts=%d ColdFallbacks=%d", resp.WarmStarts, resp.ColdFallbacks)
	}
	for _, p := range resp.Points {
		if p.Warm {
			t.Errorf("point %d warm-started under NoWarmStart", p.Index)
		}
	}
}

// TestGenerateBatchNominalMatchesGenerate pins that a batch of one
// nominal point is bit-identical to a plain Generate with the same
// pinned seed scales.
func TestGenerateBatchNominalMatchesGenerate(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(5)
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: spec, Points: []BatchPoint{{}}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Points[0].Err != nil {
		t.Fatal(resp.Points[0].Err)
	}
	heurF, heurG := DefaultScales(ckt)
	opts := Options{InitFScale: heurF, InitGScale: heurG}
	direct, err := eng.Generate(context.Background(), Request{Circuit: ckt, Spec: spec, Options: &opts})
	if err != nil {
		t.Fatal(err)
	}
	r := resp.Points[0].Response
	if !core.CoefficientsEqual(r.Num.Coeffs, direct.Num.Coeffs) ||
		!core.CoefficientsEqual(r.Den.Coeffs, direct.Den.Coeffs) {
		t.Error("single nominal batch point differs from direct Generate")
	}
}

// TestGenerateBatchMNA runs a sweep through the frequency-only MNA
// formulation: the shared-plan path and the forced unit conductance
// scale must hold across points.
func TestGenerateBatchMNA(t *testing.T) {
	ckt := circuits.OTA()
	inp, _, out := circuits.OTAInputs()
	ckt.AddV("vdrive", inp, "0", 1)
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	points := []BatchPoint{{}, {Scale: map[string]float64{"cl": 1.03}}, {Scale: map[string]float64{"cl": 0.97}}}
	resp, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: ckt, Spec: Spec{Kind: "mna", Out: out}, Points: points})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Failures != 0 {
		t.Fatalf("Failures = %d: %+v", resp.Failures, resp.Points)
	}
	for _, p := range resp.Points[1:] {
		if !p.Warm {
			t.Errorf("mna point %d did not warm-start (fallback: %q)", p.Index, p.ColdFallback)
		}
	}
}

// TestGenerateBatchCancelled pins the cancellation contract: the sweep
// stops at the cancelled point, keeps the computed prefix, and returns
// the context error.
func TestGenerateBatchCancelled(t *testing.T) {
	eng, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	ckt, spec := ladderSpec(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	resp, err := eng.GenerateBatch(ctx, BatchRequest{Circuit: ckt, Spec: spec, Points: []BatchPoint{{}, {}}})
	if err == nil || ctx.Err() == nil {
		t.Fatal("cancelled sweep returned no error")
	}
	if resp == nil || resp.Failures == 0 {
		t.Error("cancelled sweep did not record the failed point")
	}
}

func TestWarmStateNil(t *testing.T) {
	var r *Response
	if r.WarmState() != nil {
		t.Error("nil response yields warm state")
	}
	if (&Response{}).WarmState() != nil {
		t.Error("empty response yields warm state")
	}
}

// TestGenerateBatchMatchesPerPointGenerate pins that every point of a
// sweep — whose systems share patterns, plans and per-worker
// workspaces, frame-constant stamps included — is bit-identical to a
// standalone Generate of the same point replaying its own schedule, on
// both the nodal and the MNA backend.
func TestGenerateBatchMatchesPerPointGenerate(t *testing.T) {
	ota := circuits.OTA()
	inp, _, out := circuits.OTAInputs()
	ota.AddV("vdrive", inp, "0", 1)
	ladder, ladderSpec := ladderSpec(12)
	for _, tc := range []struct {
		name string
		ckt  *Circuit
		spec Spec
	}{
		{"nodal", ladder, ladderSpec},
		{"mna", ota, Spec{Kind: "mna", Out: out}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng, err := New(Config{})
			if err != nil {
				t.Fatal(err)
			}
			opts := Options{MaxIterations: 300}
			points := tolerancePoints(tc.ckt, 5, 0.05, 3)
			batch, err := eng.GenerateBatch(context.Background(), BatchRequest{Circuit: tc.ckt, Spec: tc.spec, Points: points, Options: &opts})
			if err != nil {
				t.Fatal(err)
			}
			heurF, heurG := DefaultScales(tc.ckt)
			for i, p := range batch.Points {
				if p.Err != nil {
					t.Fatalf("point %d: %v", i, p.Err)
				}
				opts := Options{MaxIterations: 300, InitFScale: heurF, InitGScale: heurG, WarmStart: p.Response.WarmState()}
				direct, err := eng.Generate(context.Background(), Request{Circuit: scaledCircuit(tc.ckt, points[i]), Spec: tc.spec, Options: &opts})
				if err != nil {
					t.Fatalf("point %d: %v", i, err)
				}
				if !core.CoefficientsEqual(direct.Num.Coeffs, p.Response.Num.Coeffs) ||
					!core.CoefficientsEqual(direct.Den.Coeffs, p.Response.Den.Coeffs) {
					t.Errorf("point %d: batch result differs from per-point Generate", i)
				}
			}
		})
	}
}
