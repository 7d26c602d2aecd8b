package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/pkg/engine"
	"repro/pkg/server"
)

// serve_mix: an open loop of seeded Poisson arrivals sent over at most
// nproc keep-alive loopback connections to an in-process server.New with
// its default configuration, at a ladder of fixed offered rates.

const (
	serveNominalRate = 400.0 // req/s at which p50, tail and throughput are reported
	serveLimitMs     = 50.0  // latency limit on the tail percentile for a rung to pass
	serveTailQ       = 0.90
	// The mix follows only "mostly hot, a minority of cold": no measured
	// traffic backs the 90/10 split, and the hot arrivals pick the four
	// hot fixtures with equal weights so that none is favoured.
	serveColdShare = 0.1 // share of arrivals that are cold requests
	hotVariants    = 8   // respelled spellings per hot fixture
	coldCheckOne   = 4   // one cold body in coldCheckOne is regenerated in-process and Bode-checked
	rungGrace      = 500 * time.Millisecond
)

// serveRungs is the offered-rate ladder, as multiples of the nominal
// rate, with each rung's share of the run's measuring time and the
// connections it uses (0: all nproc). The last rung offers far more than
// one connection can carry (a 2-vCPU host completes 2000-2700 req/s of
// the mix on one), so that connection never waits for an arrival and its
// completed rate is the server's capacity for the mix: max_rate_per_s.
// With both connections of a 2-vCPU host the capacity spread twice as
// much from run to run, with the host's share of the second vCPU.
// Whether a rung meets the latency limit is printed, not reported.
var serveRungs = []struct {
	mult, share float64
	conns       int
}{
	{1, 0.5, 0}, {2, 0.2, 0}, {16, 0.3, 1},
}

type hotSet struct {
	fx     fixture
	texts  []string // respelled netlists, one content address
	bodies [][]byte // their request bodies
	ref    []byte   // engine-encoded reference response
}

type coldSet struct {
	fx   fixture
	base *engine.Circuit
}

// arrival is one scheduled request of a rung.
type arrival struct {
	due  time.Duration // offset from the rung start
	body []byte
	hot  int    // index into hot, or -1 for a cold request
	cold int    // index into cold for a cold request
	text string // cold request netlist (for the in-process regeneration check)
}

type serveMix struct {
	seed    uint64
	backend string
	hot     []hotSet
	cold    []coldSet
	eng     *engine.Engine // default-config engine for references and checks
	srv     *server.Server
	hs      *http.Server
	url     string
	clients []*http.Client
}

func requestBody(text string, fx fixture) []byte {
	req := server.GenerateRequest{
		Netlist: text,
		Spec:    server.SpecJSON{Kind: fx.spec.Kind, In: fx.spec.In, Inn: fx.spec.Inn, Out: fx.spec.Out},
		Options: &server.OptionsJSON{MaxIterations: 300},
	}
	raw, err := json.Marshal(req)
	if err != nil {
		panic(err) // a GenerateRequest always marshals
	}
	return raw
}

// serveOptions are the generation options every serve_mix request
// carries (max_iterations 300, which ladder40 needs).
func serveOptions() *engine.Options { return ladderOptions() }

// newServeInputs builds the fixtures and the respelled hot bodies: the
// inputs of the run, without references or a server.
func newServeInputs(seed uint64, backend string) (*serveMix, error) {
	rlc, err := rlcFixture()
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(engine.Config{})
	if err != nil {
		return nil, err
	}
	sm := &serveMix{seed: seed, backend: backend, eng: eng}
	for _, fx := range []fixture{biquadFixture(), otaFixture(), ladder40Fixture(), ua741Fixture()} {
		hs := hotSet{fx: fx}
		for v := 0; v < hotVariants; v++ {
			text := respell(fx.text, inputRNG(seed, "serve_mix/hot/"+fx.name, v))
			hs.texts = append(hs.texts, text)
			hs.bodies = append(hs.bodies, requestBody(text, fx))
		}
		sm.hot = append(sm.hot, hs)
	}
	for _, fx := range []fixture{biquadFixture(), otaFixture(), rlc} {
		base, err := engine.ParseNetlist(fx.text, fx.name)
		if err != nil {
			return nil, err
		}
		sm.cold = append(sm.cold, coldSet{fx: fx, base: base})
	}
	return sm, nil
}

// newServeMix builds the inputs and their engine-encoded references, and
// starts the server on a loopback port with the cache warm on every hot
// address. backend "" is the server default; "trace:" records spans
// inside the engine.
func newServeMix(seed uint64, backend string) (*serveMix, error) {
	sm, err := newServeInputs(seed, backend)
	if err != nil {
		return nil, err
	}
	// The cache keeps the body of the spelling that filled it (the
	// warm-up sends texts[0] first), so that spelling is the reference:
	// respellings share a content address, but card order can move the
	// last bits of the coefficients.
	for h := range sm.hot {
		hs := &sm.hot[h]
		if hs.ref, err = sm.reference(hs.texts[0], hs.fx); err != nil {
			return nil, fmt.Errorf("%s reference: %w", hs.fx.name, err)
		}
	}
	if err := sm.start(); err != nil {
		return nil, err
	}
	for h := range sm.hot {
		var got bytes.Buffer
		for _, body := range sm.hot[h].bodies {
			if status, err := sm.post(sm.clients[0], body, &got); err != nil || status != http.StatusOK || !bytes.Equal(got.Bytes(), sm.hot[h].ref) {
				sm.close()
				return nil, fmt.Errorf("warm-up %s: status %d, err %v, body matches reference: %v", sm.hot[h].fx.name, status, err, bytes.Equal(got.Bytes(), sm.hot[h].ref))
			}
		}
	}
	return sm, nil
}

// reference generates a request in-process exactly as the server does
// and encodes it.
func (sm *serveMix) reference(text string, fx fixture) ([]byte, error) {
	c, err := engine.ParseNetlist(text, fx.name)
	if err != nil {
		return nil, err
	}
	resp, err := sm.eng.Generate(context.Background(), engine.Request{Circuit: c, Spec: fx.spec, Options: serveOptions()})
	if err != nil {
		return nil, err
	}
	return engine.EncodeResponseJSON(resp)
}

func (sm *serveMix) start() error {
	srv, err := server.New(server.Config{Engine: engine.Config{Backend: sm.backend}})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return err
	}
	sm.srv = srv
	sm.hs = &http.Server{Handler: srv.Handler()}
	sm.url = "http://" + ln.Addr().String() + "/v1/generate"
	go sm.hs.Serve(ln)
	for i := 0; i < runtime.NumCPU(); i++ {
		sm.clients = append(sm.clients, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}})
	}
	return nil
}

func (sm *serveMix) close() {
	for _, c := range sm.clients {
		c.CloseIdleConnections()
	}
	if sm.hs != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		_ = sm.hs.Shutdown(ctx)
		cancel()
	}
	if sm.srv != nil {
		sm.srv.Close()
	}
}

// post sends one request and reads the response into buf, which the
// caller reuses across requests so the client side allocates little.
func (sm *serveMix) post(c *http.Client, body []byte, buf *bytes.Buffer) (int, error) {
	resp, err := c.Post(sm.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	return resp.StatusCode, err
}

// schedule draws a rung's Poisson arrivals: rate req/s for d.
func (sm *serveMix) schedule(rung int, rate float64, d time.Duration) ([]arrival, error) {
	rng := inputRNG(sm.seed, "serve_mix/arrivals", rung)
	var out []arrival
	var at float64
	for {
		at += rng.ExpFloat64() / rate
		due := time.Duration(at * float64(time.Second))
		if due >= d {
			return out, nil
		}
		a := arrival{due: due, hot: -1}
		if rng.Float64() < serveColdShare {
			a.cold = rng.IntN(len(sm.cold))
			cs := sm.cold[a.cold]
			text, err := perturbText(cs.base, rng)
			if err != nil {
				return nil, err
			}
			a.text, a.body = text, requestBody(text, cs.fx)
		} else {
			a.hot = rng.IntN(len(sm.hot))
			hs := sm.hot[a.hot]
			a.body = hs.bodies[rng.IntN(len(hs.bodies))]
		}
		out = append(out, a)
	}
}

// sample is one request of a rung as the client saw it.
type sample struct {
	arrival  int
	latency  time.Duration // from due to the last response byte
	done     time.Duration // offset of the last response byte from the rung start
	lateness time.Duration // how late an idle connection woke for the request (0 when it was busy)
	status   int
	size     int    // response body bytes
	body     []byte // kept for cold requests only
	err      error
}

// rungResult is one rung of the ladder.
type rungResult struct {
	rate      float64 // offered req/s
	dur       time.Duration
	arrivals  []arrival
	samples   []sample
	wall      time.Duration // from the rung start until every connection is done
	dropped   int           // arrivals not yet sent when the rung's grace ran out
	failed    int           // samples that failed a check
	mem       memDelta
	statsFrom server.Stats
	statsTo   server.Stats
}

func (r *rungResult) latenciesMs() []float64 {
	out := make([]float64, 0, len(r.samples))
	for _, s := range r.samples {
		out = append(out, ms(s.latency))
	}
	return out
}

// throughput is the rung's responses over the time until every
// connection is done, which below capacity ends with the last response.
// It follows the offered rate, and it drops when the server falls behind.
func (r *rungResult) throughput() float64 {
	return float64(len(r.samples)) / r.wall.Seconds()
}

// completedRate is the rate of responses completed within the rung's
// duration. On a rung offered above what its connections can carry, they
// never wait for an arrival, so it is the server's capacity for the mix.
func (r *rungResult) completedRate() float64 {
	n := 0
	for _, s := range r.samples {
		if s.done <= r.dur {
			n++
		}
	}
	return float64(n) / r.dur.Seconds()
}

// growing reports a backlog that grows over the rung: the last
// quarter's median latency more than twice the first quarter's plus
// 5 ms, or requests left queued at its end.
func (r *rungResult) growing() bool {
	if r.dropped > 0 {
		return true
	}
	n := len(r.samples)
	if n < 8 {
		return false
	}
	var first, last []float64
	for _, s := range r.samples {
		switch due := r.arrivals[s.arrival].due; {
		case due < r.dur/4:
			first = append(first, ms(s.latency))
		case due >= 3*r.dur/4:
			last = append(last, ms(s.latency))
		}
	}
	return quantile(last, 0.5) > 2*quantile(first, 0.5)+5
}

// run drives one rung. Each connection's worker takes the next arrival
// in due order, sleeps until it is due if it is early, and sends it; an
// arrival that falls due while every connection is busy waits, and that
// wait counts in its latency.
func (sm *serveMix) run(arrivals []arrival, rate float64, d time.Duration, conns int, t *tracer) *rungResult {
	res := &rungResult{rate: rate, dur: d, arrivals: arrivals, samples: make([]sample, 0, len(arrivals))}
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	res.statsFrom = sm.srv.Stats()
	before := readMem()
	start := time.Now()
	cutoff := start.Add(d + rungGrace)
	clients := sm.clients
	if conns > 0 {
		clients = clients[:conns]
	}
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			var buf bytes.Buffer
			for {
				i := int(next.Add(1) - 1)
				if i >= len(arrivals) {
					return
				}
				a := arrivals[i]
				due := start.Add(a.due)
				var late time.Duration
				if wait := time.Until(due); wait > 0 {
					sleepUntilDue(wait)
					late = time.Since(due)
				}
				if time.Now().After(cutoff) {
					mu.Lock()
					res.dropped++
					mu.Unlock()
					continue
				}
				status, err := sm.post(c, a.body, &buf)
				done := time.Now()
				body := buf.Bytes()
				s := sample{arrival: i, latency: done.Sub(due), lateness: late, status: status, size: len(body), err: err}
				if err == nil && status == http.StatusOK {
					if a.hot >= 0 && !bytes.Equal(body, sm.hot[a.hot].ref) {
						s.err = fmt.Errorf("hot %s body differs from the engine-encoded reference", sm.hot[a.hot].fx.name)
					}
					if a.hot < 0 {
						s.body = bytes.Clone(body)
					}
				}
				t.leaf("request", t.now()-int64(s.latency), t.now(), int64(i+1), 0)
				mu.Lock()
				res.samples = append(res.samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	res.wall = time.Since(start)
	res.mem.add(before, readMem())
	res.statsTo = sm.srv.Stats()
	return res
}

// checkRung runs the output checks on a finished rung: status, hot body
// equality (already decided per sample), and for cold bodies the tier
// floor and wire round trip, plus in-process regeneration and the Bode
// check on a seeded sample. It returns the failed-sample count and the
// worst relative error of the cold bodies.
func (sm *serveMix) checkRung(ctx context.Context, rung int, r *rungResult) (failed int, worst float64, firstErr error) {
	fail := func(err error) {
		failed++
		if firstErr == nil {
			firstErr = err
		}
	}
	for _, s := range r.samples {
		a := r.arrivals[s.arrival]
		switch {
		case s.err != nil:
			fail(s.err)
			continue
		case s.status != http.StatusOK:
			fail(fmt.Errorf("status %d", s.status))
			continue
		case a.hot >= 0:
			continue
		}
		if err := sm.checkCold(ctx, rung, s, a, &worst); err != nil {
			fail(fmt.Errorf("cold %s: %w", sm.cold[a.cold].fx.name, err))
		}
	}
	if r.dropped > 0 && firstErr == nil {
		firstErr = fmt.Errorf("%d requests still queued at the end of the rung", r.dropped)
	}
	return failed, worst, firstErr
}

func (sm *serveMix) checkCold(ctx context.Context, rung int, s sample, a arrival, worst *float64) error {
	cs := sm.cold[a.cold]
	w, err := checkRoundTrip(nil, s.body)
	if err != nil {
		return err
	}
	tier, err := engine.ParseTier(w.Tier)
	if err != nil {
		return err
	}
	if err := checkTier(tier, cs.fx.floor); err != nil {
		return err
	}
	*worst = max(*worst, w.WorstRelError())
	if inputRNG(sm.seed, fmt.Sprintf("serve_mix/check/%d", rung), s.arrival).IntN(coldCheckOne) != 0 {
		return nil
	}
	c, err := engine.ParseNetlist(a.text, cs.fx.name)
	if err != nil {
		return err
	}
	resp, err := sm.eng.Generate(ctx, engine.Request{Circuit: c, Spec: cs.fx.spec, Options: serveOptions()})
	if err != nil {
		return fmt.Errorf("in-process regeneration: %w", err)
	}
	ref, err := engine.EncodeResponseJSON(resp)
	if err != nil {
		return err
	}
	if !bytes.Equal(ref, s.body) {
		return errors.New("served body differs from the in-process engine's bytes for the same request")
	}
	return checkBode(ctx, sm.eng, c, cs.fx.spec, resp)
}

// ladderPasses reports whether a rung meets the latency limit on its
// tail with no failures and no growing backlog.
func ladderPasses(r *rungResult, failed int) bool {
	return failed == 0 && !r.growing() && quantile(r.latenciesMs(), serveTailQ) <= serveLimitMs
}

// nominalRung is the index of the nominal rate in serveRungs.
func nominalRung() int {
	for i, r := range serveRungs {
		if r.mult == 1 {
			return i
		}
	}
	panic("refbench: no nominal rung")
}

func rungDuration(seconds float64, share float64) time.Duration {
	return time.Duration(math.Round(seconds * share * float64(time.Second)))
}

// serveRun is the built set-up of a serve_mix run: the started server
// and the arrival schedule of each rung it will drive.
type serveRun struct {
	sm    *serveMix
	rungs []rungPlan
}

type rungPlan struct {
	rung     int
	rate     float64
	dur      time.Duration
	conns    int
	arrivals []arrival
}

func buildServeRun(cfg config, backend string, rungs []rungPlan) (*serveRun, error) {
	sm, err := newServeMix(cfg.seed, backend)
	if err != nil {
		return nil, err
	}
	out := &serveRun{sm: sm}
	for _, p := range rungs {
		p.arrivals, err = sm.schedule(p.rung, p.rate, p.dur)
		if err != nil {
			sm.close()
			return nil, err
		}
		out.rungs = append(out.rungs, p)
	}
	return out, nil
}

func runServeMix(ctx context.Context, cfg config, out io.Writer) (*result, error) {
	var plans []rungPlan
	nom := nominalRung()
	if cfg.trace {
		d := rungDuration(cfg.seconds, 0.5)
		plans = []rungPlan{{rung: nom, rate: serveNominalRate, dur: d}}
	} else {
		for k, r := range serveRungs {
			plans = append(plans, rungPlan{rung: k, rate: r.mult * serveNominalRate, dur: rungDuration(cfg.seconds, r.share), conns: r.conns})
		}
	}
	setup := func(backend string) (*serveRun, float64, error) {
		return timedSetup(func() (*serveRun, error) { return buildServeRun(cfg, backend, plans) },
			func(r *serveRun) { r.sm.close() })
	}
	sr, setupS, err := setup("")
	if err != nil {
		return nil, err
	}
	stopBusy, err := keepCPUsBusy()
	if err != nil {
		sr.sm.close()
		return nil, err
	}
	defer stopBusy()
	res := &result{}
	var worst float64
	var rungs []*rungResult
	for _, p := range sr.rungs {
		r := sr.sm.run(p.arrivals, p.rate, p.dur, p.conns, nil)
		failed, w, ferr := sr.sm.checkRung(ctx, p.rung, r)
		if ferr != nil {
			fmt.Fprintf(out, "rung %.0f req/s: %v\n", p.rate, ferr)
		}
		res.Attempted += len(r.samples)
		res.Failed += failed
		worst = max(worst, w)
		rungs = append(rungs, r)
		conns := p.conns
		if conns == 0 {
			conns = len(sr.sm.clients)
		}
		fmt.Fprintf(out, "rung %6.0f req/s offered, %4.1fs, %d conns: %5d sent, %5d dropped, %7.1f req/s completed, p50 %7.3f ms, p%g %7.3f ms, lateness p%g %6.3f ms, failed %d, growing %v, meets limit: %v\n",
			p.rate, p.dur.Seconds(), conns, len(r.samples), r.dropped, r.completedRate(), quantile(r.latenciesMs(), 0.5), 100*serveTailQ, quantile(r.latenciesMs(), serveTailQ),
			100*serveTailQ, ms(time.Duration(quantile(latenesses(r), serveTailQ))), failed, r.growing(), ladderPasses(r, failed))
		r.failed = failed
	}
	sr.sm.close()
	for _, h := range sr.sm.hot {
		if w, _, _, err := engine.DecodeResponseJSON(h.ref); err == nil {
			worst = max(worst, w.WorstRelError())
		}
	}
	var mx metrics
	if !cfg.trace {
		n := rungs[nom]
		lat := n.latenciesMs()
		tail, enough := tailQuantile(lat, serveTailQ)
		maxRate := rungs[len(rungs)-1].completedRate()
		passing := 0.0
		for k, r := range rungs {
			if ladderPasses(r, r.failed) {
				passing = max(passing, sr.rungs[k].rate)
			}
		}
		mx.set("setup_s", "s", setupS)
		mx.set("throughput_per_s", "1/s", n.throughput())
		mx.set("latency_p50_ms", "ms", quantile(lat, 0.5))
		mx.set("latency_tail_ms", "ms", tail)
		mx.set("max_rate_per_s", "1/s", maxRate)
		mx.set("alloc_kb_per_op", "KiB", float64(n.mem.allocBytes)/1024/float64(max(len(n.samples), 1)))
		mx.set("max_rss_mb", "MiB", maxRSSMB())
		mx.set("worst_rel_err_log10", "log10/eps", errDecades(worst))
		fmt.Fprintf(out, "serve_mix seed %d: nominal %.0f req/s; tail = p%g over %d samples (%d beyond, enough: %v); limit p%g ≤ %.0f ms\n",
			cfg.seed, serveNominalRate, 100*serveTailQ, len(lat), int(float64(len(lat))*(1-serveTailQ)), enough, 100*serveTailQ, serveLimitMs)
		fmt.Fprintf(out, "highest offered rate meeting the limit: %.0f req/s; capacity (completed at %.0f req/s offered, one connection): %.1f req/s\n",
			passing, sr.rungs[len(sr.rungs)-1].rate, maxRate)
		sr.sm.printClasses(out, n)
		printMetrics(out, &mx, res)
		res.Metrics, res.Correct = mx.m, res.Failed == 0
		return res, nil
	}

	// Traced phase: the same schedule against a server whose engine sits
	// behind the "trace:" wrapper.
	untracedP50 := quantile(rungs[0].latenciesMs(), 0.5)
	tr, _, err := setup("trace:")
	if err != nil {
		return nil, err
	}
	t := newTracer()
	active.Store(t)
	defer active.Store(nil)
	p := tr.rungs[0]
	r := tr.sm.run(p.arrivals, p.rate, p.dur, p.conns, t)
	active.Store(nil)
	tr.sm.close()
	failed, _, ferr := tr.sm.checkRung(ctx, p.rung, r)
	if ferr != nil {
		fmt.Fprintf(out, "traced rung: %v\n", ferr)
	}
	res.Attempted += len(r.samples)
	res.Failed += failed
	serveLayerMetrics(out, &mx, t, r, untracedP50)
	if err := t.writeSpans(filepath.Join(cfg.spansDir, fmt.Sprintf("serve_mix-seed%d.jsonl", cfg.seed))); err != nil {
		return nil, err
	}
	printMetrics(out, &mx, res)
	res.Metrics, res.Correct = mx.m, res.Failed == 0
	return res, nil
}

// printClasses prints a rung's latency quantiles per request class: each
// hot fixture's cache hits and the cold generations.
func (sm *serveMix) printClasses(out io.Writer, r *rungResult) {
	lat := make([][]float64, len(sm.hot)+1)
	for _, s := range r.samples {
		k := r.arrivals[s.arrival].hot
		if k < 0 {
			k = len(sm.hot)
		}
		lat[k] = append(lat[k], ms(s.latency))
	}
	for k, l := range lat {
		name := "cold generations"
		if k < len(sm.hot) {
			name = sm.hot[k].fx.name + " hits"
		}
		fmt.Fprintf(out, "  %-20s %5d requests, p50 %7.3f ms, p%g %7.3f ms\n", name, len(l), quantile(l, 0.5), 100*serveTailQ, quantile(l, serveTailQ))
	}
}

func latenesses(r *rungResult) []float64 {
	out := make([]float64, len(r.samples))
	for i, s := range r.samples {
		out[i] = float64(s.lateness)
	}
	return out
}

// probeBodies bounds the request bodies the decode/parse/key/encode
// probes replay.
const probeBodies = 200

// serveLayerMetrics derives the per-layer metrics of the traced
// serve_mix rung: probes of the request-side layers over the rung's
// bodies, the wrapper's engine spans, the cold bodies' work counters and
// the server's counter deltas.
func serveLayerMetrics(out io.Writer, mx *metrics, t *tracer, r *rungResult, untracedP50 float64) {
	reqs := float64(max(len(r.samples), 1))
	var st opStats
	colds, wireBytes := 0, 0
	for _, s := range r.samples {
		wireBytes += s.size
		if s.body == nil {
			continue
		}
		w, _, _, err := engine.DecodeResponseJSON(s.body)
		if err != nil {
			continue
		}
		colds++
		for _, wr := range []*engine.WireResult{w.Num, w.Den} {
			if wr == nil {
				continue
			}
			st.iterations += len(wr.Iterations)
			st.solves += wr.TotalSolves
			st.hits += wr.CacheHits
			st.misses += wr.CacheMisses
			st.retries += wr.FrameRetries
			for _, it := range wr.Iterations {
				t.frame(it.K)
			}
		}
		if colds <= probeBodies {
			start := t.now()
			_, _ = engine.EncodeWireJSON(w)
			t.leaf("engine.encode", start, t.now(), 0, 0)
		}
	}
	for i, a := range r.arrivals {
		if i >= probeBodies {
			break
		}
		start := t.now()
		var req server.GenerateRequest
		if err := json.Unmarshal(a.body, &req); err != nil {
			continue
		}
		decoded := t.now()
		c, err := engine.ParseNetlist(req.Netlist, "request")
		if err != nil {
			continue
		}
		parsed := t.now()
		spec := engine.Spec{Kind: req.Spec.Kind, In: req.Spec.In, Inn: req.Spec.Inn, Out: req.Spec.Out}
		_, _ = engine.RequestKey(engine.Request{Circuit: c, Spec: spec, Options: serveOptions()}, engine.Config{})
		keyed := t.now()
		t.leaf("probe.server.decode", start, decoded, 0, 0)
		t.leaf("netlist.parse", decoded, parsed, 0, 0)
		t.leaf("probe.server.key", parsed, keyed, 0, 0)
	}
	lt := t.layerTimes()
	ev := evalTotals(lt)
	pr := t.runProbes()
	from, to := r.statsFrom, r.statsTo
	hits, misses := float64(to.Cache.Hits-from.Cache.Hits), float64(to.Cache.Misses-from.Cache.Misses)
	sheds := (to.Admission.ShedsQueueFull - from.Admission.ShedsQueueFull) + (to.Admission.ShedsDeadline - from.Admission.ShedsDeadline) +
		(to.Admission.ShedsDraining - from.Admission.ShedsDraining)
	tracedP50 := quantile(r.latenciesMs(), 0.5)
	gens := float64(max(colds, 1))

	mx.set("netlist.parse_us", "us", perCall(get(lt, "netlist.parse")))
	mx.set("engine.formulate_us", "us", perCall(get(lt, "engine.formulate")))
	mx.set("eval.points", "count", float64(ev.points)/reqs)
	mx.set("eval.busy_ms", "ms", ms(ev.self)/reqs)
	mx.set("eval.us_per_point", "us", safeDiv(float64(ev.total)/1e3, float64(ev.points)))
	setProbeMetrics(mx, pr)
	mx.set("core.self_ms", "ms", 0) // generation runs inside the server; not separable from outside
	setCoreMetrics(mx, st, gens)
	mx.set("engine.warm_starts", "count", 0)
	mx.set("engine.cold_fallbacks", "count", 0)
	mx.set("engine.solves_per_point", "count", float64(st.solves)/gens)
	mx.set("engine.encode_us", "us", perCall(get(lt, "engine.encode")))
	mx.set("engine.wire_kb", "KiB", float64(wireBytes)/1024/reqs)
	mx.set("server.decode_us", "us", perCall(get(lt, "probe.server.decode")))
	mx.set("server.key_us", "us", perCall(get(lt, "probe.server.key")))
	mx.set("server.cache_hit_ratio", "ratio", safeDiv(hits, hits+misses))
	mx.set("server.generations", "count", float64(to.Generations-from.Generations))
	mx.set("server.queue_wait_p50_ms", "ms", to.Admission.QueueWaitP50Ms)
	mx.set("server.queue_wait_tail_ms", "ms", to.Admission.QueueWaitP99Ms)
	mx.set("server.sheds", "count", float64(sheds))
	mx.set("server.gen_ewma_ms", "ms", to.Admission.GenLatencyEWMAMs)
	mx.set("loadgen.lateness_tail_ms", "ms", ms(time.Duration(quantile(latenesses(r), serveTailQ))))
	mx.set("runtime.gc_cycles_per_op", "count", float64(r.mem.gcCycles)/reqs)
	mx.set("runtime.gc_pause_ms_per_op", "ms", float64(r.mem.pauseNs)/1e6/reqs)
	mx.set("trace.overhead_frac", "ratio", safeDiv(tracedP50-untracedP50, untracedP50))

	reqTotal := get(lt, "request").total
	printLayerTable(out, "serve_mix", lt, len(r.samples), reqTotal)
	fmt.Fprintf(out, "  engine spans run on server goroutines (parent 0); request self time includes them. trace.overhead_frac %.3f\n",
		safeDiv(tracedP50-untracedP50, untracedP50))
}

// sleepUntilDue blocks the calling thread in nanosleep. time.Sleep wakes
// through the runtime's netpoller, whose millisecond timeout released
// arrivals a median 0.45 ms late on an idle process; the thread's own
// timer is typically within 0.1 ms.
func sleepUntilDue(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// keepCPUsBusy starts one lowest-priority busy loop per CPU and returns
// the function that stops them and waits for them. An open loop leaves
// the CPUs idle between arrivals, and on a virtual machine waking a
// halted vCPU took about 0.1 ms on some runs and 0.5 ms on others,
// depending on the host's load, which made serve_mix's latencies bimodal
// from run to run. The loops yield to every other thread and exit on
// their own if this process dies.
func keepCPUsBusy() (stop func(), err error) {
	var cmds []*exec.Cmd
	stop = func() {
		for _, c := range cmds {
			_ = c.Process.Kill() // an already-exited loop needs no kill
		}
		for _, c := range cmds {
			_ = c.Wait() // killed on purpose: the exit status is expected
		}
	}
	loop := fmt.Sprintf("while kill -0 %d 2>/dev/null; do :; done", os.Getpid())
	for i := 0; i < runtime.NumCPU(); i++ {
		c := exec.Command("nice", "-n", "19", "sh", "-c", loop)
		if err := c.Start(); err != nil {
			stop()
			return nil, fmt.Errorf("busy loop: %w", err)
		}
		cmds = append(cmds, c)
	}
	return stop, nil
}
