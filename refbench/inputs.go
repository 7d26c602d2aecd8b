package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/netlist"
	"repro/pkg/engine"
)

// fixture is one circuit the workloads draw inputs from: its nominal
// netlist text, the network function generated on it, and the weakest
// quality tier its references earned at the benchmark's seed commit.
type fixture struct {
	name  string
	text  string
	spec  engine.Spec
	floor engine.Tier
	opts  *engine.Options
}

// ladderOptions is the iteration budget the 40-section ladder needs
// (its default of 64 frames runs out before every coefficient resolves).
func ladderOptions() *engine.Options { return &engine.Options{MaxIterations: 300} }

func formatFixture(name string, c *circuit.Circuit, spec engine.Spec, floor engine.Tier) fixture {
	text, err := netlist.FormatString(c)
	if err != nil {
		panic(fmt.Sprintf("refbench: format %s: %v", name, err)) // built-in circuits always format
	}
	return fixture{name: name, text: text, spec: spec, floor: floor}
}

func ua741Fixture() fixture {
	inp, inn, out := circuits.UA741Inputs()
	return formatFixture("ua741", circuits.UA741(), engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}, engine.TierNumeric)
}

func ladder40Fixture() fixture {
	fx := formatFixture("ladder40", circuits.RCLadder(40, 1e3, 1e-9),
		engine.Spec{Kind: "vgain", In: "in", Out: circuits.RCLadderOut(40)}, engine.TierNumeric)
	fx.opts = ladderOptions()
	return fx
}

func biquadFixture() fixture {
	in, out := circuits.BiquadNodes()
	return formatFixture("biquad", circuits.Biquad(), engine.Spec{Kind: "vgain", In: in, Out: out}, engine.TierCertified)
}

func otaFixture() fixture {
	inp, inn, out := circuits.OTAInputs()
	return formatFixture("ota", circuits.OTA(), engine.Spec{Kind: "diffgain", In: inp, Inn: inn, Out: out}, engine.TierCertified)
}

// rlcFixture reads the repository's MNA-kind example netlist. The
// benchmark runs from the repository root; its tests run one level down.
func rlcFixture() (fixture, error) {
	var firstErr error
	for _, path := range []string{"testdata/rlc.sp", "../testdata/rlc.sp"} {
		raw, err := os.ReadFile(path)
		if err == nil {
			return fixture{name: "rlc", text: string(raw), spec: engine.Spec{Kind: "mna", Out: "out"}, floor: engine.TierCertified}, nil
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return fixture{}, firstErr
}

// inputRNG returns the generator of input i of a workload: inputs are a
// pure function of (seed, stream, i), so a run can rebuild any input
// without replaying the ones before it.
func inputRNG(seed uint64, stream string, i int) *rand.Rand {
	h := sha256.Sum256([]byte(fmt.Sprintf("%d/%s/%d", seed, stream, i)))
	var a, b uint64
	for k := 0; k < 8; k++ {
		a = a<<8 | uint64(h[k])
		b = b<<8 | uint64(h[8+k])
	}
	return rand.New(rand.NewPCG(a, b))
}

// perturbFactor draws a ±5% value multiplier.
func perturbFactor(rng *rand.Rand) float64 { return 0.95 + 0.1*rng.Float64() }

// perturbText returns the fixture's netlist with every passive and
// controlled-source value scaled by an independent ±5% factor. The
// independent sources keep their values: they set the drive, not the
// circuit.
func perturbText(base *circuit.Circuit, rng *rand.Rand) (string, error) {
	out := circuit.New(base.Name)
	for _, el := range base.Elements() {
		if el.Kind != circuit.VSource && el.Kind != circuit.ISource {
			el.Value *= perturbFactor(rng)
		}
		if err := out.AddElement(el); err != nil {
			return "", err
		}
	}
	return netlist.FormatString(out)
}

// perturbPoint is perturbText as a batch point: a ±5% factor for every
// element of the base circuit.
func perturbPoint(base *circuit.Circuit, rng *rand.Rand) engine.BatchPoint {
	p := engine.BatchPoint{Scale: make(map[string]float64, len(base.Elements()))}
	for _, el := range base.Elements() {
		p.Scale[el.Name] = perturbFactor(rng)
	}
	return p
}

// respell rewrites a netlist without changing the circuit it describes:
// the element cards are shuffled, each value is re-spelled in another
// decimal form of the same number (so it parses to the same float64),
// and comments, blank lines and extra whitespace are sprinkled in. The
// title line stays first and ".end" last. Every respelling lands on the
// nominal text's content address.
func respell(text string, rng *rand.Rand) string {
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	var cards []string
	for _, ln := range lines[1:] {
		t := strings.TrimSpace(ln)
		if t == "" || strings.HasPrefix(t, "*") || strings.EqualFold(t, ".end") {
			continue
		}
		cards = append(cards, t)
	}
	rng.Shuffle(len(cards), func(i, j int) { cards[i], cards[j] = cards[j], cards[i] })
	seps := []string{" ", "  ", "\t", " \t "}
	var b strings.Builder
	b.WriteString(lines[0])
	b.WriteByte('\n')
	for i, card := range cards {
		if rng.IntN(8) == 0 {
			fmt.Fprintf(&b, "* respelled card %d\n", i)
		}
		if rng.IntN(10) == 0 {
			b.WriteByte('\n')
		}
		if rng.IntN(3) == 0 {
			b.WriteString(seps[rng.IntN(len(seps))])
		}
		fields := strings.Fields(card)
		fields[len(fields)-1] = respellValue(fields[len(fields)-1], rng)
		for k, f := range fields {
			if k > 0 {
				b.WriteString(seps[rng.IntN(len(seps))])
			}
			b.WriteString(f)
		}
		if rng.IntN(6) == 0 {
			b.WriteString("  ; respelled")
		}
		b.WriteByte('\n')
	}
	b.WriteString(".end\n")
	return b.String()
}

// respellValue writes a plain decimal value another way: exponent form,
// upper-case exponent, or the mantissa's decimal point shifted right.
// Each is an exact decimal rendering of the same number, and float
// parsing is correctly rounded, so the parsed value is unchanged.
// Tokens that are not plain decimals (SPICE suffixes) are kept.
func respellValue(tok string, rng *rand.Rand) string {
	v, err := strconv.ParseFloat(tok, 64)
	if err != nil {
		return tok
	}
	e := strconv.FormatFloat(v, 'e', -1, 64)
	switch rng.IntN(4) {
	case 0:
		return e
	case 1:
		return strings.ToUpper(e)
	case 2:
		mant, exp, _ := strings.Cut(e, "e")
		x, _ := strconv.Atoi(exp)
		sign := ""
		if strings.HasPrefix(mant, "-") {
			sign, mant = "-", mant[1:]
		}
		digits := strings.Replace(mant, ".", "", 1)
		return fmt.Sprintf("%s%se%d", sign, digits, x-(len(digits)-1))
	default:
		return tok
	}
}

// digest fingerprints a list of generated inputs.
func digest(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:%s", len(p), p)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// inputDigest fingerprints the first inputs a workload generates for a
// seed, so runs can show they measured the same inputs.
func inputDigest(workload string, seed uint64) (string, error) {
	var parts []string
	switch workload {
	case "ua741_cold":
		w, err := newUA741Cold(seed, "")
		if err != nil {
			return "", err
		}
		for i := 0; i < 8; i++ {
			text, err := w.input(i)
			if err != nil {
				return "", err
			}
			parts = append(parts, text)
		}
	case "ladder40_sweep":
		w, err := newLadder40Sweep(seed, "")
		if err != nil {
			return "", err
		}
		for i := 0; i < 4; i++ {
			for _, p := range w.input(i) {
				keys := make([]string, 0, len(p.Scale))
				for k := range p.Scale {
					keys = append(keys, k)
				}
				slices.Sort(keys)
				for _, k := range keys {
					parts = append(parts, fmt.Sprintf("%s=%x", k, math.Float64bits(p.Scale[k])))
				}
			}
		}
	case "serve_mix":
		sm, err := newServeInputs(seed, "")
		if err != nil {
			return "", err
		}
		arrivals, err := sm.schedule(0, serveNominalRate, time.Second)
		if err != nil {
			return "", err
		}
		for _, a := range arrivals {
			parts = append(parts, fmt.Sprintf("%d", a.due), string(a.body))
		}
	default:
		return "", fmt.Errorf("unknown workload %q", workload)
	}
	return digest(parts...), nil
}
