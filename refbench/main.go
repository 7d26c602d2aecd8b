// Command refbench is the repository's benchmark: it runs seeded
// workloads through the public API of pkg/engine and pkg/server, checks
// every output, and prints the end-to-end metrics (or, with --trace 1,
// the per-layer metrics of a traced run) by name and unit. The last line
// of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// Usage (from the repository root):
//
//	bash refbench/run.sh --workload ua741_cold --seed 1 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metrics collects values in print order.
type metrics struct {
	names []string
	m     map[string]metric
}

func (ms *metrics) set(name, unit string, v float64) {
	if ms.m == nil {
		ms.m = map[string]metric{}
	}
	if _, ok := ms.m[name]; !ok {
		ms.names = append(ms.names, name)
	}
	ms.m[name] = metric{Value: v, Unit: unit}
}

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	spansDir string
}

// setupRepeats is how many times a run builds its set-up; setup_s is the
// median.
const setupRepeats = 5

var workloads = map[string]func(ctx context.Context, cfg config, out io.Writer) (*result, error){
	"ua741_cold":     runUA741Cold,
	"ladder40_sweep": runLadder40Sweep,
	"serve_mix":      runServeMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("refbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload: ua741_cold, ladder40_sweep or serve_mix")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 20, "measuring time in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer mode")
	spansDir := fs.String("spans-dir", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runWorkload, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "refbench: need --workload (%v), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, spansDir: *spansDir}
	inputs, err := inputDigest(cfg.workload, cfg.seed)
	if err != nil {
		fmt.Fprintf(stderr, "refbench: %s: inputs: %v\n", *workload, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s seed %d: input digest %s\n", cfg.workload, cfg.seed, inputs)
	res, err := runWorkload(context.Background(), cfg, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "refbench: %s: %v\n", *workload, err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "refbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// timedSetup builds the workload's set-up setupRepeats times and keeps
// the last; the others are closed. It returns the median build time.
func timedSetup[T any](build func() (T, error), closeFn func(T)) (T, float64, error) {
	var zero, kept T
	var secs []float64
	for k := 0; k < setupRepeats; k++ {
		start := time.Now()
		v, err := build()
		if err != nil {
			return zero, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if k > 0 {
			closeFn(kept)
		}
		kept = v
	}
	return kept, quantile(secs, 0.5), nil
}

// --- closed-loop workloads ---

// closedSpec describes a closed-loop workload's reporting.
type closedSpec struct {
	name  string
	tailQ float64 // fixed tail percentile
	build func(seed uint64, backend string) (closedWorkload, error)
}

// warmupOps are run untimed in set-up, on inputs no measured op uses.
const (
	warmupOps   = 3
	warmupIndex = 1 << 30
)

func runUA741Cold(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	return runClosed(ctx, cfg, out, closedSpec{name: "ua741_cold", tailQ: 0.90,
		build: func(seed uint64, backend string) (closedWorkload, error) { return newUA741Cold(seed, backend) }})
}

func runLadder40Sweep(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	return runClosed(ctx, cfg, out, closedSpec{name: "ladder40_sweep", tailQ: 0.90,
		build: func(seed uint64, backend string) (closedWorkload, error) { return newLadder40Sweep(seed, backend) }})
}

// closedRun is the outcome of one measuring phase.
type closedRun struct {
	ops  []opResult
	mem  memDelta
	wall time.Duration
}

func (r *closedRun) failed() (int, error) {
	n := 0
	var first error
	for _, o := range r.ops {
		if o.err != nil {
			n++
			if first == nil {
				first = o.err
			}
		}
	}
	return n, first
}

func (r *closedRun) latenciesMs() []float64 {
	out := make([]float64, len(r.ops))
	for i, o := range r.ops {
		out[i] = ms(o.latency)
	}
	return out
}

// measureClosed runs ops back to back for d (at least one op).
func measureClosed(ctx context.Context, w closedWorkload, d time.Duration, t *tracer) *closedRun {
	r := &closedRun{}
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < d; i++ {
		res, check := w.op(ctx, i, t, &r.mem)
		if check != nil {
			// Checks generate too; keep them out of the trace.
			prev := active.Swap(nil)
			res.err = check()
			active.Store(prev)
		}
		r.ops = append(r.ops, res)
	}
	r.wall = time.Since(start)
	return r
}

func runClosed(ctx context.Context, cfg config, out io.Writer, spec closedSpec) (*result, error) {
	// The warm-up ops are part of the set-up; their output checks are not
	// timed, because which ops get the seeded repeat and Bode check
	// depends on the seed.
	type warmed struct {
		w      closedWorkload
		checks []func() error
	}
	setup := func(backend string) (closedWorkload, float64, error) {
		kept, secs, err := timedSetup(func() (warmed, error) {
			w, err := spec.build(cfg.seed, backend)
			if err != nil {
				return warmed{}, err
			}
			out := warmed{w: w}
			for k := 0; k < warmupOps; k++ {
				r, check := w.op(ctx, warmupIndex+k, nil, &memDelta{})
				if r.err != nil {
					return warmed{}, fmt.Errorf("warm-up: %w", r.err)
				}
				out.checks = append(out.checks, check)
			}
			return out, nil
		}, func(warmed) {})
		if err != nil {
			return nil, 0, err
		}
		for _, check := range kept.checks {
			if err := check(); err != nil {
				return nil, 0, fmt.Errorf("warm-up: %w", err)
			}
		}
		return kept.w, secs, nil
	}
	w, setupS, err := setup("")
	if err != nil {
		return nil, err
	}
	measure := time.Duration(cfg.seconds * float64(time.Second))
	if cfg.trace {
		measure /= 2
	}
	base := measureClosed(ctx, w, measure, nil)
	res := &result{Attempted: len(base.ops)}
	res.Failed, err = base.failed()
	if err != nil {
		fmt.Fprintf(out, "first failure: %v\n", err)
	}
	lat := base.latenciesMs()
	p50 := quantile(lat, 0.5)
	var mx metrics
	if !cfg.trace {
		units, busy, worst := 0, time.Duration(0), 0.0
		for _, o := range base.ops {
			units += o.units
			busy += o.latency
			worst = max(worst, o.worst)
		}
		tail, enough := tailQuantile(lat, spec.tailQ)
		thr := float64(units) / busy.Seconds()
		mx.set("setup_s", "s", setupS)
		mx.set("throughput_per_s", "1/s", thr)
		mx.set("latency_p50_ms", "ms", p50)
		mx.set("latency_tail_ms", "ms", tail)
		mx.set("max_rate_per_s", "1/s", thr)
		mx.set("alloc_kb_per_op", "KiB", float64(base.mem.allocBytes)/1024/float64(len(base.ops)))
		mx.set("max_rss_mb", "MiB", maxRSSMB())
		mx.set("worst_rel_err_log10", "log10/eps", errDecades(worst))
		fmt.Fprintf(out, "%s seed %d: %d ops in %.1fs, %d units; tail = p%g over %d samples (%d beyond, enough: %v); max_rate_per_s = throughput (closed loop, one caller)\n",
			spec.name, cfg.seed, len(base.ops), base.wall.Seconds(), units, 100*spec.tailQ, len(lat), int(float64(len(lat))*(1-spec.tailQ)), enough)
		printMetrics(out, &mx, res)
		res.Metrics, res.Correct = mx.m, res.Failed == 0
		return res, nil
	}

	// Traced phase: the same inputs through an engine behind the
	// "trace:" wrapper, with spans around every call into a layer.
	tw, _, err := setup("trace:")
	if err != nil {
		return nil, err
	}
	t := newTracer()
	active.Store(t)
	defer active.Store(nil)
	traced := measureClosed(ctx, tw, measure, t)
	active.Store(nil)
	f, ferr := traced.failed()
	res.Attempted += len(traced.ops)
	res.Failed += f
	if ferr != nil {
		fmt.Fprintf(out, "first traced failure: %v\n", ferr)
	}
	closedLayerMetrics(out, &mx, spec.name, t, traced, p50)
	if err := t.writeSpans(filepath.Join(cfg.spansDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, cfg.seed))); err != nil {
		return nil, err
	}
	printMetrics(out, &mx, res)
	res.Metrics, res.Correct = mx.m, res.Failed == 0
	return res, nil
}

// closedLayerMetrics derives the per-layer metrics of a traced closed
// loop from its spans, op counts and probes, and prints the per-layer
// table.
func closedLayerMetrics(out io.Writer, mx *metrics, name string, t *tracer, traced *closedRun, untracedP50 float64) {
	ops := float64(len(traced.ops))
	lt := t.layerTimes()
	var st opStats
	units := 0
	for _, o := range traced.ops {
		st.iterations += o.stats.iterations
		st.solves += o.stats.solves
		st.hits += o.stats.hits
		st.misses += o.stats.misses
		st.retries += o.stats.retries
		st.warm += o.stats.warm
		st.cold += o.stats.cold
		st.wireBytes += o.stats.wireBytes
		units += o.units
	}
	ev := evalTotals(lt)
	evalBusy := ev.self
	coreSelf := get(lt, "engine.generate").self + get(lt, "engine.batch").self
	pr := t.runProbes()
	tracedP50 := quantile(traced.latenciesMs(), 0.5)

	mx.set("netlist.parse_us", "us", perCall(get(lt, "netlist.parse")))
	mx.set("engine.formulate_us", "us", perCall(get(lt, "engine.formulate")))
	mx.set("eval.points", "count", float64(ev.points)/ops)
	mx.set("eval.busy_ms", "ms", ms(evalBusy)/ops)
	mx.set("eval.us_per_point", "us", safeDiv(float64(ev.total)/1e3, float64(ev.points)))
	setProbeMetrics(mx, pr)
	mx.set("core.self_ms", "ms", ms(coreSelf)/ops)
	setCoreMetrics(mx, st, ops)
	mx.set("engine.warm_starts", "count", float64(st.warm)/ops)
	mx.set("engine.cold_fallbacks", "count", float64(st.cold)/ops)
	mx.set("engine.solves_per_point", "count", float64(st.solves)/float64(max(units, 1)))
	mx.set("engine.encode_us", "us", perCall(get(lt, "engine.encode")))
	mx.set("engine.wire_kb", "KiB", float64(st.wireBytes)/1024/float64(max(units, 1)))
	for _, n := range serverMetricNames {
		mx.set(n.name, n.unit, 0)
	}
	mx.set("loadgen.lateness_tail_ms", "ms", 0)
	mx.set("runtime.gc_cycles_per_op", "count", float64(traced.mem.gcCycles)/ops)
	mx.set("runtime.gc_pause_ms_per_op", "ms", float64(traced.mem.pauseNs)/1e6/ops)
	mx.set("trace.overhead_frac", "ratio", safeDiv(tracedP50-untracedP50, untracedP50))

	opTotal := get(lt, "op").total
	printLayerTable(out, name, lt, len(traced.ops), opTotal)
	accounted := evalBusy + coreSelf
	for _, n := range []string{"netlist.parse", "engine.formulate", "engine.encode"} {
		accounted += get(lt, n).self
	}
	fmt.Fprintf(out, "  eval busy + core self + parse + formulate + encode = %.4f of %.4f ms/op (%.1f%%); trace.overhead_frac %.3f\n",
		ms(accounted)/ops, ms(opTotal)/ops, 100*safeDiv(float64(accounted), float64(opTotal)), safeDiv(tracedP50-untracedP50, untracedP50))
}

// evalSpans are the span names the trace wrapper records around point
// evaluation, one per formulation backend.
var evalSpans = []string{"eval.nodal", "eval.mna"}

func evalTotals(lt map[string]*layerTime) layerTime {
	var sum layerTime
	for _, n := range evalSpans {
		l := get(lt, n)
		sum.count += l.count
		sum.points += l.points
		sum.total += l.total
		sum.self += l.self
	}
	return sum
}

func get(lt map[string]*layerTime, name string) *layerTime {
	if l := lt[name]; l != nil {
		return l
	}
	return &layerTime{}
}

func setProbeMetrics(mx *metrics, pr probeResult) {
	mx.set("nodal.assemble_us", "us", pr.assembleUS)
	mx.set("sparse.factor_us", "us", pr.factorUS)
	mx.set("sparse.nnz", "count", float64(pr.nnz))
	mx.set("dft.idft_us", "us", pr.idftUS)
}

func setCoreMetrics(mx *metrics, st opStats, ops float64) {
	mx.set("core.iterations", "count", float64(st.iterations)/ops)
	mx.set("core.solves", "count", float64(st.solves)/ops)
	mx.set("core.joint_hit_ratio", "ratio", safeDiv(float64(st.hits), float64(st.hits+st.misses)))
	mx.set("core.frame_retries", "count", float64(st.retries)/ops)
}

// serverMetricNames are the server-side per-layer metrics, zero on the
// workloads that bypass the server.
var serverMetricNames = []struct{ name, unit string }{
	{"server.decode_us", "us"},
	{"server.key_us", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.generations", "count"},
	{"server.queue_wait_p50_ms", "ms"},
	{"server.queue_wait_tail_ms", "ms"},
	{"server.sheds", "count"},
	{"server.gen_ewma_ms", "ms"},
}

// perCall is a layer's mean span duration in microseconds.
func perCall(l *layerTime) float64 {
	return safeDiv(float64(l.total)/1e3, float64(l.count))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// printMetrics writes the human-readable metric list and the failure
// share (which the JSON line carries as attempted/failed).
func printMetrics(out io.Writer, mx *metrics, res *result) {
	for _, n := range mx.names {
		m := mx.m[n]
		fmt.Fprintf(out, "  %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	fmt.Fprintf(out, "  %-28s %14.6g (%d failed of %d attempted)\n", "fail_frac", safeDiv(float64(res.Failed), float64(res.Attempted)), res.Failed, res.Attempted)
}
