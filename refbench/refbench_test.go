package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"repro/pkg/engine"
)

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// benchmarkFile is the part of BENCHMARK.json the tests compare against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// runTiny runs a workload at a tiny size and returns its parsed result line.
func runTiny(t *testing.T, workload, trace string) result {
	t.Helper()
	var out, errOut bytes.Buffer
	args := []string{"--workload", workload, "--seed", "3", "--seconds", "0.4", "--trace", trace, "--spans-dir", t.TempDir()}
	if code := run(args, &out, &errOut); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, errOut.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", workload, err, out.String())
	}
	return res
}

// TestWorkloadsPrintBenchmarkMetrics runs every workload at a tiny size,
// untraced and traced, and requires the printed metric names and units
// to be exactly those BENCHMARK.json defines, with every output correct.
func TestWorkloadsPrintBenchmarkMetrics(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		for trace, want := range map[string]map[string]string{"0": units(bf.EndToEnd), "1": units(bf.PerLayer)} {
			res := runTiny(t, w.Name, trace)
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace %s: correct %v, %d failed of %d", w.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace %s: %d metrics printed, BENCHMARK.json defines %d", w.Name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok || m.Unit != unit {
					t.Errorf("%s trace %s: metric %s = %+v, want unit %q", w.Name, trace, name, m, unit)
				}
			}
		}
	}
}

func units(ms []metricDef) map[string]string {
	out := map[string]string{}
	for _, m := range ms {
		out[m.Name] = m.Unit
	}
	return out
}

// TestTamperedOutputFails flips one byte of a coefficient value in an
// op's wire bytes: the op's checks must reject it, and the loop counts
// a rejected op as failed.
func TestTamperedOutputFails(t *testing.T) {
	ctx := context.Background()
	w, err := newUA741Cold(5, "")
	if err != nil {
		t.Fatal(err)
	}
	res, check := w.op(ctx, 0, nil, &memDelta{})
	if res.err != nil || check() != nil {
		t.Fatalf("clean op failed: %v / %v", res.err, check())
	}
	text, _ := w.input(0)
	c, resp, wire, err := w.generate(ctx, text, nil)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(wire, []byte(`"value": "`))
	if i < 0 {
		t.Fatal("no coefficient value in the wire bytes")
	}
	tampered := bytes.Clone(wire)
	k := i + len(`"value": "`) + 2 // a mantissa digit
	if tampered[k] == '1' {
		tampered[k] = '2'
	} else {
		tampered[k] = '1'
	}
	if err := w.check(ctx, 0, text, c, resp, tampered); err == nil {
		t.Fatal("tampered wire bytes passed the checks")
	}
	run := closedRun{ops: []opResult{{err: w.check(ctx, 0, text, c, resp, tampered)}}}
	if n, _ := run.failed(); n != 1 {
		t.Fatalf("failed ops = %d, want 1", n)
	}
}

// TestInputDigestFollowsSeed: the same seed gives the same inputs, a
// different seed different ones.
func TestInputDigestFollowsSeed(t *testing.T) {
	for name := range workloads {
		a, err := inputDigest(name, 7)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := inputDigest(name, 7)
		c, _ := inputDigest(name, 8)
		if a != b {
			t.Errorf("%s: seed 7 digests differ: %s vs %s", name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 give the same digest %s", name, a)
		}
	}
}

// TestTraceWrapperIsTransparent: generating behind the "trace:" wrapper
// leaves the wire bytes and the batch work counters unchanged.
func TestTraceWrapperIsTransparent(t *testing.T) {
	ctx := context.Background()
	active.Store(newTracer())
	defer active.Store(nil)

	plain, _ := newUA741Cold(9, "")
	traced, err := newUA741Cold(9, "trace:")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := plain.input(0)
	_, _, want, err := plain.generate(ctx, text, nil)
	if err != nil {
		t.Fatal(err)
	}
	_, resp, got, err := traced.generate(ctx, text, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("ua741 wire bytes differ behind the trace wrapper")
	}
	if resp.Formulation.Backend != "nodal" {
		t.Errorf("traced formulation is labeled %q, want nodal", resp.Formulation.Backend)
	}

	lp, _ := newLadder40Sweep(9, "")
	lt, _ := newLadder40Sweep(9, "trace:")
	pts := lp.input(0)[:3]
	a, err := lp.sweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := lt.sweep(ctx, pts)
	if err != nil {
		t.Fatal(err)
	}
	if a.SolvesPerPoint() != b.SolvesPerPoint() || a.WarmStarts != b.WarmStarts {
		t.Errorf("solves/point %v vs %v, warm starts %d vs %d behind the trace wrapper",
			a.SolvesPerPoint(), b.SolvesPerPoint(), a.WarmStarts, b.WarmStarts)
	}
	for k := range a.Points {
		wa, _ := engine.EncodeResponseJSON(a.Points[k].Response)
		wb, _ := engine.EncodeResponseJSON(b.Points[k].Response)
		if !bytes.Equal(wa, wb) {
			t.Errorf("ladder40 point %d wire bytes differ behind the trace wrapper", k)
		}
	}
	if n := len(active.Load().spans); n == 0 {
		t.Error("the trace wrapper recorded no spans")
	}
}

// TestRespellKeepsContentAddress: every respelling of every fixture
// parses to a circuit with the nominal netlist's content address.
func TestRespellKeepsContentAddress(t *testing.T) {
	for _, fx := range []fixture{biquadFixture(), otaFixture(), ladder40Fixture(), ua741Fixture()} {
		key := func(text string) string {
			c, err := engine.ParseNetlist(text, fx.name)
			if err != nil {
				t.Fatalf("%s: %v\n%s", fx.name, err, text)
			}
			k, err := engine.RequestKey(engine.Request{Circuit: c, Spec: fx.spec, Options: serveOptions()}, engine.Config{})
			if err != nil {
				t.Fatal(err)
			}
			return k
		}
		want := key(fx.text)
		for v := 0; v < hotVariants; v++ {
			text := respell(fx.text, inputRNG(1, "respell-test", v))
			if text == fx.text {
				t.Errorf("%s variant %d is not respelled", fx.name, v)
			}
			if got := key(text); got != want {
				t.Errorf("%s variant %d: key %s, want %s", fx.name, v, got, want)
			}
		}
	}
}

func TestCovered(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {25, 26}}
	if got := covered(iv, 0, 100); got != 25 {
		t.Errorf("covered = %d, want 25", got)
	}
	if got := covered(iv, 8, 22); got != 9 {
		t.Errorf("clipped covered = %d, want 9", got)
	}
}

// TestCompletedRateCountsWithinRung: responses that complete in
// the grace after a saturated rung do not raise its capacity.
func TestCompletedRateCountsWithinRung(t *testing.T) {
	r := &rungResult{dur: 2 * time.Second}
	for _, done := range []time.Duration{100 * time.Millisecond, time.Second, 2 * time.Second, 2100 * time.Millisecond} {
		r.samples = append(r.samples, sample{done: done})
	}
	if got := r.completedRate(); got != 1.5 {
		t.Errorf("completed rate = %v req/s, want 1.5", got)
	}
}
