package main

import (
	"bytes"
	"context"
	"fmt"

	"repro/internal/bode"
	"repro/internal/check"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

// Output checks. Every op's output goes through them outside the timed
// region; a failed check counts the op as failed.

// Bode tolerances and sweep size are those of check.BodeVsAC (the
// thresholds the paper's Fig. 2 reproduction holds).
const (
	bodeTolDB     = 0.05
	bodeTolDeg    = 0.5
	bodePoints    = 61
	bodeSampleOne = 8 // one op in bodeSampleOne gets the Bode and repeat checks
)

// checkTier rejects degraded results and results under the fixture's
// floor.
func checkTier(tier, floor engine.Tier) error {
	if tier == engine.TierDegraded || tier < floor {
		return fmt.Errorf("tier %v below floor %v", tier, floor)
	}
	return nil
}

// checkRoundTrip decodes wire bytes and requires them to reproduce the
// generated response exactly: every coefficient status, value and bound
// bit for bit, every error bar, the tier and the work counters. It also
// requires re-encoding the decoded form to give the same bytes. A nil
// resp checks only the decode/re-encode round trip (for bodies that came
// over HTTP).
func checkRoundTrip(resp *engine.Response, wire []byte) (*engine.WireResponse, error) {
	w, num, den, err := engine.DecodeResponseJSON(wire)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	again, err := engine.EncodeWireJSON(w)
	if err != nil {
		return nil, fmt.Errorf("re-encode: %w", err)
	}
	if !bytes.Equal(again, wire) {
		return nil, fmt.Errorf("re-encoded wire differs from the original (%d vs %d bytes)", len(again), len(wire))
	}
	if resp == nil {
		return w, nil
	}
	if w.Backend != resp.Formulation.Backend {
		return nil, fmt.Errorf("backend %q decoded as %q", resp.Formulation.Backend, w.Backend)
	}
	if err := sameResult(resp.Num, num); err != nil {
		return nil, err
	}
	return w, sameResult(resp.Den, den)
}

func sameX(a, b xmath.XFloat) bool { return a.Mant() == b.Mant() && a.Exp() == b.Exp() }

func sameResult(want, got *engine.Result) error {
	if want == nil || got == nil {
		if want != got {
			return fmt.Errorf("decoded result presence differs")
		}
		return nil
	}
	if len(want.Coeffs) != len(got.Coeffs) || len(want.Quality.Coefficients) != len(got.Quality.Coefficients) {
		return fmt.Errorf("%s: coefficient counts differ after decode", want.Name)
	}
	for i, c := range want.Coeffs {
		g := got.Coeffs[i]
		if c.Status != g.Status || !sameX(c.Value, g.Value) || !sameX(c.Bound, g.Bound) || c.Iteration != g.Iteration {
			return fmt.Errorf("%s s^%d: decoded %v, generated %v", want.Name, i, g.Value, c.Value)
		}
		if want.Quality.Coefficients[i] != got.Quality.Coefficients[i] {
			return fmt.Errorf("%s s^%d: error bar differs after decode", want.Name, i)
		}
	}
	if want.Quality.Tier != got.Quality.Tier || want.TotalSolves != got.TotalSolves ||
		want.CacheHits != got.CacheHits || want.CacheMisses != got.CacheMisses {
		return fmt.Errorf("%s: tier or work counters differ after decode", want.Name)
	}
	return nil
}

// checkBode compares the frequency response rebuilt from the generated
// polynomials against the engine's direct AC analysis of the same
// circuit, over the band check.FreqRange derives from the denominator.
func checkBode(ctx context.Context, eng *engine.Engine, c *engine.Circuit, spec engine.Spec, resp *engine.Response) error {
	num, den := resp.Num.Poly(), resp.Den.Poly()
	f0, f1 := check.FreqRange(den)
	freqs := bode.LogSpace(f0, f1, bodePoints)
	fromPolys, err := bode.FromPolys(num, den, freqs)
	if err != nil {
		return fmt.Errorf("bode: %w", err)
	}
	h, err := eng.ACResponse(ctx, c, spec, freqs)
	if err != nil {
		return fmt.Errorf("bode: AC analysis: %w", err)
	}
	magDB, phsDeg, err := bode.Compare(fromPolys, bode.FromComplexResponse(freqs, h))
	if err != nil {
		return fmt.Errorf("bode: %w", err)
	}
	if magDB > bodeTolDB || phsDeg > bodeTolDeg {
		return fmt.Errorf("bode: |ΔdB| %.3g, |Δphase| %.3g° over %.3g..%.3g Hz", magDB, phsDeg, f0, f1)
	}
	return nil
}
