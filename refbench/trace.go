package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dft"
	"repro/internal/nodal"
	"repro/internal/sparse"
	"repro/internal/xmath"
	"repro/pkg/engine"
)

// The traced run records spans around every call the benchmark makes
// into a layer, plus spans the "trace:" backend wrapper records around
// point evaluation and formulation inside the engine. Spans stay in
// memory and are written out when the run ends.

// span is one timed call. Start and End are nanoseconds since the
// tracer started; Parent is the span that was open on the benchmark's
// calling goroutine (0 for spans recorded on goroutines the benchmark
// does not drive, such as the server's generation workers); Op groups
// the spans of one op; N counts the points an eval span evaluated.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Op     int64  `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"`
}

// evalPoint is one recorded evaluation point, replayed by the LU probe.
type evalPoint struct {
	s    complex128
	f, g float64
}

// maxProbePoints bounds the evaluation points kept for the LU probe.
const maxProbePoints = 256

type tracer struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	stack  []int64 // open benchmark-side spans, innermost last
	op     int64
	sys    *nodal.System // system the probe points belong to
	points []evalPoint
	frames map[int]int // IDFT frame size K → frames generated
}

func newTracer() *tracer { return &tracer{t0: time.Now(), frames: map[int]int{}} }

// active is the tracer the "trace:" wrapper reports to (nil when off).
// The wrapper is built by the engine's registry from the inner backend
// alone, so the tracer reaches it through this variable; a formulation
// keeps the tracer that was active when it was built.
var active atomic.Pointer[tracer]

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// beginOp starts the next op and opens its root span.
func (t *tracer) beginOp() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	t.op++
	t.mu.Unlock()
	return t.begin("op")
}

// begin opens a span nested in the innermost open one.
func (t *tracer) begin(name string) int64 {
	if t == nil {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: t.top(), Op: t.op, Name: name, Start: start, End: start})
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int64) {
	if t == nil {
		return
	}
	now := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

func (t *tracer) top() int64 {
	if n := len(t.stack); n > 0 {
		return t.stack[n-1]
	}
	return 0
}

// leaf records a completed span under the innermost open span; op < 0
// keeps the current op.
func (t *tracer) leaf(name string, start, end int64, op int64, n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if op < 0 {
		op = t.op
	}
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: t.top(), Op: op, Name: name, Start: start, End: end, N: n})
}

// sample keeps evaluation points of the first nodal system seen for the
// LU replay probe.
func (t *tracer) sample(sys *nodal.System, pts []complex128, f, g float64) {
	if sys == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.sys == nil {
		t.sys = sys
	}
	if t.sys != sys {
		return
	}
	for _, s := range pts {
		if len(t.points) >= maxProbePoints {
			return
		}
		t.points = append(t.points, evalPoint{s, f, g})
	}
}

// frame counts one generated interpolation frame of size k.
func (t *tracer) frame(k int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.frames[k]++
	t.mu.Unlock()
}

// framesOf counts the frames of a generated response.
func (t *tracer) framesOf(resp *engine.Response) {
	if t == nil || resp == nil {
		return
	}
	for _, r := range []*engine.Result{resp.Num, resp.Den} {
		if r != nil {
			for _, it := range r.Iterations {
				t.frame(it.K)
			}
		}
	}
}

// writeSpans writes the spans as JSON lines.
func (t *tracer) writeSpans(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	t.mu.Lock()
	for _, s := range t.spans {
		if err == nil {
			err = enc.Encode(s)
		}
	}
	t.mu.Unlock()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// layerTime is the per-name aggregate of spans.
type layerTime struct {
	count  int
	points int
	total  time.Duration // sum of span durations
	self   time.Duration // sum of durations minus the union of child spans; for leaf spans, their union
}

// layerTimes aggregates spans by name. A span's self time is its
// duration minus the part of its interval its children cover (children
// may overlap one another when the engine evaluates in parallel).
func (t *tracer) layerTimes() map[string]*layerTime {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int64][][2]int64{}
	for _, s := range t.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := map[string]*layerTime{}
	byName := map[string][][2]int64{}
	parents := map[string]bool{}
	for _, s := range t.spans {
		byName[s.Name] = append(byName[s.Name], [2]int64{s.Start, s.End})
		if len(children[s.ID]) > 0 {
			parents[s.Name] = true
		}
	}
	for _, s := range t.spans {
		lt := out[s.Name]
		if lt == nil {
			lt = &layerTime{}
			out[s.Name] = lt
		}
		dur := s.End - s.Start
		lt.count++
		lt.points += s.N
		lt.total += time.Duration(dur)
		lt.self += time.Duration(dur - covered(children[s.ID], s.Start, s.End))
	}
	// Leaf spans of one name can overlap (parallel point evaluation):
	// their self time is the wall time any of them was open.
	for name, lt := range out {
		if !parents[name] {
			lt.self = time.Duration(covered(byName[name], math.MinInt64, math.MaxInt64))
		}
	}
	return out
}

// covered returns the length of the union of the intervals clipped to
// [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = slices.Clone(iv)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var sum, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, x := range iv {
		a, b := max(x[0], lo), min(x[1], hi)
		if b <= a {
			continue
		}
		if curHi < a {
			sum += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return sum + curHi - curLo
}

// --- the "trace:" backend wrapper ---

func init() {
	engine.RegisterWrapper("trace", func(inner engine.Backend) engine.Backend { return traceBackend{inner} })
}

// traceBackend times formulation and point evaluation of an inner
// backend. It keeps the inner backend's Formulation.Backend label, so
// wire bytes are unchanged, and forwards FormulateShared and the Share
// handle, so plan sharing across a batch is unchanged.
type traceBackend struct{ inner engine.Backend }

func (b traceBackend) Name() string { return "trace:" + b.inner.Name() }

func (b traceBackend) Formulate(c *engine.Circuit, spec engine.Spec) (*engine.Formulation, error) {
	return traceFormulate(func() (*engine.Formulation, error) { return b.inner.Formulate(c, spec) })
}

func (b traceBackend) FormulateShared(c *engine.Circuit, spec engine.Spec, prior *engine.Formulation) (*engine.Formulation, error) {
	sf, ok := b.inner.(engine.SharedFormulator)
	if !ok {
		return b.Formulate(c, spec)
	}
	return traceFormulate(func() (*engine.Formulation, error) { return sf.FormulateShared(c, spec, prior) })
}

func traceFormulate(formulate func() (*engine.Formulation, error)) (*engine.Formulation, error) {
	t := active.Load()
	start := t.now()
	f, err := formulate()
	t.leaf("engine.formulate", start, t.now(), -1, 0)
	if err != nil || t == nil {
		return f, err
	}
	return wrapFormulation(f, t), nil
}

// wrapFormulation returns a copy of f whose evaluators record an
// "eval.<backend>" span per call. The copy shares TF's evaluator
// closures and the Share handle with f.
func wrapFormulation(f *engine.Formulation, t *tracer) *engine.Formulation {
	wf := *f
	tf := *f.TF
	name := "eval." + f.Backend
	sys, _ := f.Share.(*nodal.System)
	tf.Num = wrapEvaluator(tf.Num, t, name, sys)
	tf.Den = wrapEvaluator(tf.Den, t, name, sys)
	if both := f.TF.EvalBoth; both != nil {
		tf.EvalBoth = func(s complex128, fscale, gscale float64) (num, den xmath.XComplex) {
			start := t.now()
			num, den = both(s, fscale, gscale)
			t.leaf(name, start, t.now(), -1, 1)
			t.sample(sys, []complex128{s}, fscale, gscale)
			return num, den
		}
	}
	wf.TF = &tf
	return &wf
}

func wrapEvaluator(ev engine.Evaluator, t *tracer, name string, sys *nodal.System) engine.Evaluator {
	eval := ev.Eval
	ev.Eval = func(s complex128, fscale, gscale float64) xmath.XComplex {
		start := t.now()
		v := eval(s, fscale, gscale)
		t.leaf(name, start, t.now(), -1, 1)
		t.sample(sys, []complex128{s}, fscale, gscale)
		return v
	}
	if batch := ev.EvalBatch; batch != nil {
		ev.EvalBatch = func(ctx context.Context, points []complex128, fscale, gscale float64, workers int) []xmath.XComplex {
			start := t.now()
			v := batch(ctx, points, fscale, gscale, workers)
			t.leaf(name, start, t.now(), -1, len(points))
			t.sample(sys, points, fscale, gscale)
			return v
		}
	}
	return ev
}

// --- replay probes ---

// probeResult holds the per-call costs the probes measured.
type probeResult struct {
	assembleUS float64 // nodal.System.MatrixAt per point
	factorUS   float64 // FactorSharedInto + Det per point
	nnz        int     // nonzeros of the assembled matrix
	idftUS     float64 // HermitianInverseInto per frame, weighted by the frames generated
}

// probeRounds is how many times each probe call is timed after one
// untimed call (which also primes the shared pivot plan); a probe
// reports the median, so a GC cycle or a host stall during one call does
// not move it.
const probeRounds = 9

// timeMedian times fn probeRounds times and returns the median call.
func timeMedian(fn func()) time.Duration {
	fn()
	var d []float64
	for r := 0; r < probeRounds; r++ {
		start := time.Now()
		fn()
		d = append(d, float64(time.Since(start)))
	}
	return time.Duration(quantile(d, 0.5))
}

// runProbes replays recorded evaluation points through nodal assembly
// and sparse factorization, and runs the Hermitian IDFT at the frame
// sizes the run generated, each outside any op.
func (t *tracer) runProbes() probeResult {
	var pr probeResult
	if t.sys != nil && len(t.points) > 0 {
		var sp sparse.SharedPlan
		var ws sparse.Workspace
		var asm, fac time.Duration
		start := t.now()
		for _, p := range t.points {
			asm += timeMedian(func() { t.sys.MatrixAt(p.s, p.f, p.g) })
			fac += timeMedian(func() {
				m := t.sys.MatrixAt(p.s, p.f, p.g)
				lu, err := m.FactorSharedInto(&sp, &ws)
				if errors.Is(err, sparse.ErrPlanMiss) {
					lu, err = t.sys.MatrixAt(p.s, p.f, p.g).FactorInPlace(sparse.DefaultThreshold)
				}
				if err == nil {
					_ = lu.Det()
				}
			})
		}
		n := len(t.points)
		pr.assembleUS = float64(asm) / 1e3 / float64(n)
		// The factor timing includes an assembly; subtract it.
		pr.factorUS = float64(fac-asm) / 1e3 / float64(n)
		t.leaf("probe.nodal.assemble", start, start+int64(asm), 0, n)
		t.leaf("probe.sparse.factor", start, start+int64(fac-asm), 0, n)
		p := t.points[0]
		pr.nnz = t.sys.MatrixAt(p.s, p.f, p.g).NNZ()
	}
	var sc dft.Scratch
	rng := rand.New(rand.NewPCG(1, 2))
	var weighted time.Duration
	frames := 0
	for k, n := range t.frames {
		half := make([]xmath.XComplex, dft.HermitianHalf(k))
		for i := range half {
			half[i] = xmath.FromComplex(complex(rng.NormFloat64(), rng.NormFloat64()))
		}
		dst := make([]xmath.XComplex, k)
		start := t.now()
		per := timeMedian(func() { dft.HermitianInverseInto(dst, half, k, &sc) })
		t.leaf("probe.dft.idft", start, t.now(), 0, probeRounds)
		weighted += per * time.Duration(n)
		frames += n
	}
	if frames > 0 {
		pr.idftUS = float64(weighted) / 1e3 / float64(frames)
	}
	return pr
}

// layerRows maps span names to the repository's modules for the
// per-layer table.
var layerRows = []struct{ span, layer string }{
	{"op", "refbench loop (op self time)"},
	{"request", "pkg/server + net/http, client side (request self time)"},
	{"netlist.parse", "internal/netlist (engine.ParseNetlist)"},
	{"engine.formulate", "pkg/engine formulate (nodal/mna Build)"},
	{"engine.generate", "internal/core self (Generate minus eval, formulate)"},
	{"engine.batch", "internal/core self (GenerateBatch minus eval, formulate)"},
	{"eval.nodal", "internal/nodal+sparse+xmath (eval)"},
	{"eval.mna", "internal/mna+sparse+xmath (eval)"},
	{"engine.encode", "pkg/engine wire (EncodeResponseJSON)"},
	{"probe.nodal.assemble", "probe: internal/nodal MatrixAt"},
	{"probe.sparse.factor", "probe: internal/sparse FactorSharedInto+Det"},
	{"probe.dft.idft", "probe: internal/dft HermitianInverseInto"},
	{"probe.server.decode", "probe: pkg/server request decode"},
	{"probe.server.key", "probe: pkg/engine RequestKey"},
}

// printLayerTable writes the per-layer self-time table: each layer's
// self time per op and its share of the op spans' total.
func printLayerTable(w io.Writer, workload string, lt map[string]*layerTime, ops int, opTotal time.Duration) {
	fmt.Fprintf(w, "per-layer self time, %s (%d ops, traced):\n", workload, ops)
	fmt.Fprintf(w, "  %-58s %8s %12s %8s\n", "layer", "spans", "self ms/op", "share")
	for _, row := range layerRows {
		l := lt[row.span]
		if l == nil {
			continue
		}
		per := ms(l.self) / float64(max(ops, 1))
		share := 0.0
		if opTotal > 0 && !strings.HasPrefix(row.span, "probe.") {
			share = float64(l.self) / float64(opTotal)
		}
		fmt.Fprintf(w, "  %-58s %8d %12.4f %7.1f%%\n", row.layer, l.count, per, 100*share)
	}
}
