package engine_test

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/pkg/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite golden wire fixtures")

// goldenResponse generates the named fixture's response. The degraded
// fixture drives a fault-wrapped backend whose plan makes every
// evaluation point singular, so retries exhaust deterministically and
// AllowDegraded yields a partial result with a populated failure log —
// the shape a service client sees when it opts into partial answers.
func goldenResponse(t *testing.T, name string) *engine.Response {
	t.Helper()
	eng, err := engine.New(engine.Config{})
	if err != nil {
		t.Fatal(err)
	}
	switch name {
	case "biquad":
		in, out := circuits.BiquadNodes()
		resp, err := eng.Generate(t.Context(), engine.Request{
			Circuit: circuits.Biquad(),
			Spec:    engine.Spec{Kind: "vgain", In: in, Out: out},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	case "ladder40":
		resp, err := eng.Generate(t.Context(), engine.Request{
			Circuit: circuits.RCLadder(40, 1e3, 1e-9),
			Spec:    engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)},
			Options: &engine.Options{MaxIterations: 300},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	case "ua741":
		// diffgain evaluates the merged-row and shorted projections.
		inp, inn, out := circuits.UA741Inputs()
		resp, err := eng.Generate(t.Context(), engine.Request{
			Circuit: circuits.UA741(),
			Spec:    engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	case "rlc":
		// The mna backend: inductor and voltage-source branch unknowns.
		raw, err := os.ReadFile(filepath.Join("..", "..", "testdata", "rlc.sp"))
		if err != nil {
			t.Fatal(err)
		}
		c, err := engine.ParseNetlist(string(raw), "rlc")
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Generate(t.Context(), engine.Request{
			Circuit: c,
			Spec:    engine.Spec{Kind: "mna", Out: "out"},
		})
		if err != nil {
			t.Fatal(err)
		}
		return resp
	case "degraded":
		c, err := engine.ParseNetlist(
			"gc2\nR1 in x 10k\nC1 x 0 2p\nR2 x out 20k\nC2 out 0 1p\nRl out 0 100k\n.end\n", "gc2")
		if err != nil {
			t.Fatal(err)
		}
		spec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
		inner, err := engine.LookupBackend("nodal", spec)
		if err != nil {
			t.Fatal(err)
		}
		form, err := fault.New(inner, &fault.Plan{SingularOneIn: 1}).Formulate(c, spec)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := eng.Generate(t.Context(), engine.Request{
			Circuit: c, Spec: spec, Formulation: form,
			Options: &engine.Options{AllowDegraded: true},
		})
		if err != nil {
			t.Fatal(err)
		}
		if !resp.Degraded() {
			t.Fatal("fixture did not degrade")
		}
		return resp
	}
	t.Fatalf("unknown fixture %q", name)
	return nil
}

// TestWireGolden pins the wire format byte for byte against committed
// fixtures (regenerate with go test ./pkg/engine -run Golden -update)
// and proves the decode side reconstructs every coefficient exactly.
func TestWireGolden(t *testing.T) {
	for _, name := range []string{"biquad", "ladder40", "ua741", "rlc", "degraded"} {
		t.Run(name, func(t *testing.T) {
			resp := goldenResponse(t, name)
			raw, err := engine.EncodeResponseJSON(resp)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", "wire", name+".json")
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, raw, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			if !bytes.Equal(raw, want) {
				t.Errorf("wire format drifted from %s (%d vs %d bytes); if intentional, regenerate with -update and flag the format change in review",
					path, len(raw), len(want))
			}

			again, err := engine.EncodeResponseJSON(resp)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(raw, again) {
				t.Error("re-encoding the same response changed bytes")
			}

			w, num, den, err := engine.DecodeResponseJSON(raw)
			if err != nil {
				t.Fatal(err)
			}
			if w.Tier != resp.Tier().String() {
				t.Errorf("decoded Tier = %q, want %q", w.Tier, resp.Tier())
			}
			checkRoundTrip(t, "num", resp.Num, num)
			checkRoundTrip(t, "den", resp.Den, den)
		})
	}
}

// checkRoundTrip asserts the decoded Result reproduces the original's
// coefficients bit for bit (XFloat is comparable; == is exact) along
// with the deterministic counters.
func checkRoundTrip(t *testing.T, label string, orig, got *engine.Result) {
	t.Helper()
	if (orig == nil) != (got == nil) {
		t.Fatalf("%s: decoded nil-ness mismatch", label)
	}
	if orig == nil {
		return
	}
	if len(got.Coeffs) != len(orig.Coeffs) {
		t.Fatalf("%s: %d coefficients decoded, want %d", label, len(got.Coeffs), len(orig.Coeffs))
	}
	for i, c := range orig.Coeffs {
		d := got.Coeffs[i]
		if d.Status != c.Status {
			t.Errorf("%s s^%d: status %v, want %v", label, i, d.Status, c.Status)
		}
		if c.Status == engine.Valid && d.Value != c.Value {
			t.Errorf("%s s^%d: value %v, want %v (inexact round trip)", label, i, d.Value, c.Value)
		}
		if c.Status == engine.Negligible && d.Bound != c.Bound {
			t.Errorf("%s s^%d: bound %v, want %v (inexact round trip)", label, i, d.Bound, c.Bound)
		}
		if d.Quality != c.Quality || d.Iteration != c.Iteration {
			t.Errorf("%s s^%d: quality/iteration drifted", label, i)
		}
	}
	if got.TotalSolves != orig.TotalSolves || got.M != orig.M ||
		got.SigDigits != orig.SigDigits || got.Degraded() != orig.Degraded() ||
		got.SeedFScale != orig.SeedFScale || got.SeedGScale != orig.SeedGScale {
		t.Errorf("%s: deterministic header fields drifted", label)
	}
	if got.Quality.Tier != orig.Quality.Tier {
		t.Errorf("%s: tier %v decoded as %v", label, orig.Quality.Tier, got.Quality.Tier)
	}
	if len(got.Quality.Coefficients) != len(orig.Quality.Coefficients) {
		t.Fatalf("%s: %d error bars decoded, want %d", label, len(got.Quality.Coefficients), len(orig.Quality.Coefficients))
	}
	for i, b := range orig.Quality.Coefficients {
		if got.Quality.Coefficients[i] != b {
			t.Errorf("%s s^%d: error bar drifted: %+v, want %+v", label, i, got.Quality.Coefficients[i], b)
		}
	}
	if len(got.Quality.Events) != len(orig.Quality.Events) {
		t.Fatalf("%s: %d quality events decoded, want %d", label, len(got.Quality.Events), len(orig.Quality.Events))
	}
	for i, ev := range orig.Quality.Events {
		d := got.Quality.Events[i]
		if d.Kind != ev.Kind || d.Frame != ev.Frame || d.Target != ev.Target || d.Detail != ev.Detail {
			t.Errorf("%s event %d: drifted: %+v, want %+v", label, i, d, ev)
		}
	}
}

// FuzzWireQuality fuzzes the wire-response decoder with its quality
// envelope: any body the decoder accepts must re-encode to a canonical
// fixed point (encode∘decode is idempotent byte for byte) and the
// reconstructed QualityReport — tier, per-coefficient error bars, event
// log — must survive the second round trip unchanged. Rejections (bad
// tier strings, malformed coefficients) must be errors, never panics.
func FuzzWireQuality(f *testing.F) {
	eng, err := engine.New(engine.Config{})
	if err != nil {
		f.Fatal(err)
	}
	in, out := circuits.BiquadNodes()
	spec := engine.Spec{Kind: "vgain", In: in, Out: out}
	// Seed with a real certified/exact body (recovery pass on, so the
	// corpus carries exact tiers and a recovery event) ...
	resp, err := eng.Generate(context.Background(), engine.Request{
		Circuit: circuits.Biquad(), Spec: spec,
		Options: &engine.Options{ExactRecovery: true},
	})
	if err != nil {
		f.Fatal(err)
	}
	if raw, err := engine.EncodeResponseJSON(resp); err == nil {
		f.Add(raw)
	}
	// ... and a degraded one whose event log holds typed faults.
	c, err := engine.ParseNetlist(
		"gc2\nR1 in x 10k\nC1 x 0 2p\nR2 x out 20k\nC2 out 0 1p\nRl out 0 100k\n.end\n", "gc2")
	if err != nil {
		f.Fatal(err)
	}
	dspec := engine.Spec{Kind: "vgain", In: "in", Out: "out"}
	if inner, err := engine.LookupBackend("nodal", dspec); err == nil {
		if form, err := fault.New(inner, &fault.Plan{SingularOneIn: 1}).Formulate(c, dspec); err == nil {
			deg, err := eng.Generate(context.Background(), engine.Request{
				Circuit: c, Spec: dspec, Formulation: form,
				Options: &engine.Options{AllowDegraded: true},
			})
			if err == nil {
				if raw, err := engine.EncodeResponseJSON(deg); err == nil {
					f.Add(raw)
				}
			}
		}
	}
	// Crafted bodies steering the fuzzer at the quality fields: tiers,
	// error bars, events — both well-formed and must-reject shapes.
	f.Add([]byte(`{"tier":"certified","num":{"name":"numerator","tier":"certified","coeffs":[{"status":"valid","value":"1.5p-3","iteration":0,"tier":"exact"}]}}`))
	f.Add([]byte(`{"tier":"degraded","den":{"name":"denominator","tier":"degraded","coeffs":[{"status":"unknown","iteration":-1,"tier":"degraded","rel_error":1,"cond_log10":2.5,"retries":3}],"events":[{"kind":"fault","frame":3,"target":2,"detail":"solve failed"},{"kind":"cold-fallback","frame":-1,"target":-1,"detail":"schedule refused"}]}}`))
	f.Add([]byte(`{"tier":"wobbly","num":{"tier":"wobbly","coeffs":[]}}`))
	f.Add([]byte(`{"num":{"coeffs":[{"status":"negligible","bound":"1p-40","tier":"certified","rel_error":-1}]}}`))
	f.Fuzz(func(t *testing.T, raw []byte) {
		w, num, den, err := engine.DecodeResponseJSON(raw)
		if err != nil {
			return
		}
		enc, err := engine.EncodeWireJSON(w)
		if err != nil {
			// Every field of a decoded wire response is a finite JSON
			// value, so re-encoding cannot refuse.
			t.Fatalf("decoded response failed to re-encode: %v", err)
		}
		w2, num2, den2, err := engine.DecodeResponseJSON(enc)
		if err != nil {
			t.Fatalf("re-encoded response failed to decode: %v", err)
		}
		for _, pair := range []struct {
			label  string
			a, b   *engine.Result
			aw, bw *engine.WireResult
		}{{"num", num, num2, w.Num, w2.Num}, {"den", den, den2, w.Den, w2.Den}} {
			if (pair.a == nil) != (pair.b == nil) {
				t.Fatalf("%s: nil-ness changed across round trip", pair.label)
			}
			if pair.a == nil {
				continue
			}
			if pair.a.Quality.Tier.String() != pair.aw.Tier {
				t.Errorf("%s: reconstructed tier %v does not spell as the wire tier %q",
					pair.label, pair.a.Quality.Tier, pair.aw.Tier)
			}
			if !reflect.DeepEqual(pair.a.Quality, pair.b.Quality) {
				t.Errorf("%s: quality report changed across encode/decode round trip", pair.label)
			}
			if !reflect.DeepEqual(pair.a.Coeffs, pair.b.Coeffs) {
				t.Errorf("%s: coefficients changed across encode/decode round trip", pair.label)
			}
		}
		enc2, err := engine.EncodeWireJSON(w2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatal("encoding is not deterministic")
		}
		if got := w2.WorstRelError(); got != w.WorstRelError() {
			t.Fatalf("worst relative error changed across round trip: %g vs %g", w.WorstRelError(), got)
		}
	})
}

func TestWireDecodeRejects(t *testing.T) {
	for name, body := range map[string]string{
		"bad status":    `{"num":{"coeffs":[{"status":"wobbly"}]}}`,
		"missing value": `{"num":{"coeffs":[{"status":"valid"}]}}`,
		"bad xfloat":    `{"num":{"coeffs":[{"status":"valid","value":"1.5"}]}}`,
		"missing bound": `{"den":{"coeffs":[{"status":"negligible"}]}}`,
		"not json":      `{"num":`,
	} {
		if _, _, _, err := engine.DecodeResponseJSON([]byte(body)); err == nil {
			t.Errorf("%s: decode accepted %s", name, body)
		}
	}
}
