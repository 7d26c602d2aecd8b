package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"repro/internal/circuit"
	"repro/pkg/engine"
)

// Closed-loop workloads: one caller, the next op starts after the
// previous one and its checks finish. Latency is the op's timed region;
// checks run outside it.

// opResult is one completed op.
type opResult struct {
	latency time.Duration
	units   int     // references (ua741_cold) or points (ladder40_sweep)
	worst   float64 // largest WorstRelError among the op's outputs
	err     error   // generation error or failed output check
	stats   opStats
}

// opStats are the per-op counts the per-layer metrics average.
type opStats struct {
	iterations, solves, hits, misses, retries int
	warm, cold                                int
	wireBytes                                 int
}

func (s *opStats) addResponse(resp *engine.Response) {
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		if r == nil {
			continue
		}
		s.iterations += len(r.Iterations)
		s.solves += r.TotalSolves
		s.hits += r.CacheHits
		s.misses += r.CacheMisses
		s.retries += r.FrameRetries
	}
}

// closedWorkload is one op generator of a closed loop.
type closedWorkload interface {
	// op runs the timed calls of op i and returns the op's output checks
	// (nil when the op already failed). mem accumulates allocation over
	// the timed calls only.
	op(ctx context.Context, i int, t *tracer, mem *memDelta) (opResult, func() error)
}

// serialEval pins the closed loops' point evaluation to one worker: on
// a 2-vCPU host the worker pool's speed depends on whether the second
// vCPU is free, which moved the µA741 median between 13 and 30 ms from
// one run to the next. The results are bit-identical either way.
const serialEval = 1

// --- ua741_cold ---

// ua741Cold runs netlist text → ParseNetlist → Formulate → Generate →
// EncodeResponseJSON on a fresh ±5% perturbation of the µA741 per op,
// with the default engine configuration, no warm start and no stores.
type ua741Cold struct {
	seed uint64
	fx   fixture
	base *engine.Circuit
	eng  *engine.Engine
}

func newUA741Cold(seed uint64, backend string) (*ua741Cold, error) {
	fx := ua741Fixture()
	base, err := engine.ParseNetlist(fx.text, fx.name)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{Backend: backend, Options: engine.Options{Parallelism: serialEval}})
	if err != nil {
		return nil, err
	}
	return &ua741Cold{seed: seed, fx: fx, base: base, eng: eng}, nil
}

func (w *ua741Cold) input(i int) (string, error) {
	return perturbText(w.base, inputRNG(w.seed, "ua741_cold", i))
}

// generate is the timed path of one op.
func (w *ua741Cold) generate(ctx context.Context, text string, t *tracer) (*engine.Circuit, *engine.Response, []byte, error) {
	id := t.begin("netlist.parse")
	c, err := engine.ParseNetlist(text, w.fx.name)
	t.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	f, err := w.eng.Formulate(c, w.fx.spec)
	if err != nil {
		return nil, nil, nil, err
	}
	id = t.begin("engine.generate")
	resp, err := w.eng.Generate(ctx, engine.Request{Circuit: c, Spec: w.fx.spec, Formulation: f})
	t.end(id)
	if err != nil {
		return nil, nil, nil, err
	}
	id = t.begin("engine.encode")
	wire, err := engine.EncodeResponseJSON(resp)
	t.end(id)
	return c, resp, wire, err
}

func (w *ua741Cold) op(ctx context.Context, i int, t *tracer, mem *memDelta) (opResult, func() error) {
	text, err := w.input(i)
	if err != nil {
		return opResult{err: err}, nil
	}
	before := readMem()
	start := time.Now()
	id := t.beginOp()
	c, resp, wire, err := w.generate(ctx, text, t)
	t.end(id)
	res := opResult{latency: time.Since(start), units: 1}
	mem.add(before, readMem())
	if err != nil {
		res.err = err
		return res, nil
	}
	t.framesOf(resp)
	res.worst = resp.WorstRelError()
	res.stats.addResponse(resp)
	res.stats.wireBytes = len(wire)
	return res, func() error { return w.check(ctx, i, text, c, resp, wire) }
}

func (w *ua741Cold) check(ctx context.Context, i int, text string, c *engine.Circuit, resp *engine.Response, wire []byte) error {
	if err := checkTier(resp.Tier(), w.fx.floor); err != nil {
		return err
	}
	if _, err := checkRoundTrip(resp, wire); err != nil {
		return err
	}
	if inputRNG(w.seed, "ua741_cold/check", i).IntN(bodeSampleOne) != 0 {
		return nil
	}
	_, _, again, err := w.generate(ctx, text, nil)
	if err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	if !bytes.Equal(again, wire) {
		return fmt.Errorf("repeat of op %d gave different wire bytes", i)
	}
	return checkBode(ctx, w.eng, c, w.fx.spec, resp)
}

// --- ladder40_sweep ---

// ladderPoints is the number of Monte Carlo points per GenerateBatch.
const ladderPoints = 8

// ladder40Sweep runs one warm-started GenerateBatch over a fresh seeded
// ±5% Monte Carlo point set of the 40-section RC ladder per op. The base
// netlist is parsed once at set-up: there is no parse and no server.
type ladder40Sweep struct {
	seed uint64
	fx   fixture
	base *engine.Circuit
	eng  *engine.Engine
}

func newLadder40Sweep(seed uint64, backend string) (*ladder40Sweep, error) {
	fx := ladder40Fixture()
	base, err := engine.ParseNetlist(fx.text, fx.name)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{Backend: backend, Options: engine.Options{Parallelism: serialEval}})
	if err != nil {
		return nil, err
	}
	return &ladder40Sweep{seed: seed, fx: fx, base: base, eng: eng}, nil
}

func (w *ladder40Sweep) input(i int) []engine.BatchPoint {
	rng := inputRNG(w.seed, "ladder40_sweep", i)
	pts := make([]engine.BatchPoint, ladderPoints)
	for j := range pts {
		pts[j] = perturbPoint(w.base, rng)
	}
	return pts
}

func (w *ladder40Sweep) sweep(ctx context.Context, pts []engine.BatchPoint) (*engine.BatchResponse, error) {
	br, err := w.eng.GenerateBatch(ctx, engine.BatchRequest{Circuit: w.base, Spec: w.fx.spec, Points: pts, Options: w.fx.opts})
	if err == nil && br.Failures > 0 {
		for _, p := range br.Points {
			if p.Err != nil {
				err = fmt.Errorf("point %d: %w", p.Index, p.Err)
				break
			}
		}
	}
	return br, err
}

func (w *ladder40Sweep) op(ctx context.Context, i int, t *tracer, mem *memDelta) (opResult, func() error) {
	pts := w.input(i)
	before := readMem()
	start := time.Now()
	opID := t.beginOp()
	id := t.begin("engine.batch")
	br, err := w.sweep(ctx, pts)
	t.end(id)
	t.end(opID)
	res := opResult{latency: time.Since(start), units: len(pts)}
	mem.add(before, readMem())
	if err != nil {
		res.err = err
		return res, nil
	}
	res.stats.warm, res.stats.cold = br.WarmStarts, br.ColdFallbacks
	for _, p := range br.Points {
		t.framesOf(p.Response)
		res.stats.addResponse(p.Response)
		res.worst = max(res.worst, p.Response.WorstRelError())
	}
	return res, func() error { return w.check(ctx, i, pts, br) }
}

// check runs the tier and round-trip checks on every point, repeats a
// seeded sample of sweeps for byte identity, and runs the Bode check on
// one point of each sampled sweep.
func (w *ladder40Sweep) check(ctx context.Context, i int, pts []engine.BatchPoint, br *engine.BatchResponse) error {
	wires := make([][]byte, len(br.Points))
	for k, p := range br.Points {
		if err := checkTier(p.Response.Tier(), w.fx.floor); err != nil {
			return err
		}
		wire, err := engine.EncodeResponseJSON(p.Response)
		if err != nil {
			return err
		}
		if _, err := checkRoundTrip(p.Response, wire); err != nil {
			return err
		}
		wires[k] = wire
	}
	rng := inputRNG(w.seed, "ladder40_sweep/check", i)
	if rng.IntN(bodeSampleOne) != 0 {
		return nil
	}
	again, err := w.sweep(ctx, pts)
	if err != nil {
		return fmt.Errorf("repeat: %w", err)
	}
	if again.TotalSolves != br.TotalSolves || again.WarmStarts != br.WarmStarts {
		return fmt.Errorf("repeat of sweep %d changed the work counters", i)
	}
	for k, p := range again.Points {
		wire, err := engine.EncodeResponseJSON(p.Response)
		if err != nil {
			return err
		}
		if !bytes.Equal(wire, wires[k]) {
			return fmt.Errorf("repeat of sweep %d point %d gave different wire bytes", i, k)
		}
	}
	k := rng.IntN(len(pts))
	return checkBode(ctx, w.eng, scaled(w.base, pts[k]), w.fx.spec, br.Points[k].Response)
}

// scaled applies a batch point to the base circuit, as GenerateBatch does.
func scaled(base *engine.Circuit, p engine.BatchPoint) *engine.Circuit {
	out := circuit.New(base.Name)
	for _, el := range base.Elements() {
		if f, ok := p.Scale[el.Name]; ok {
			el.Value *= f
		}
		_ = out.AddElement(el) // elements of a valid circuit re-add cleanly
	}
	return out
}
