package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of the samples by linear
// interpolation between order statistics; 0 for no samples.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := slices.Clone(samples)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// tailQuantile is the workload's fixed tail percentile, checked against
// the sample count: the estimate needs at least ten samples beyond it.
func tailQuantile(samples []float64, q float64) (float64, bool) {
	return quantile(samples, q), float64(len(samples))*(1-q) >= 10
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// memSnap is the slice of runtime.MemStats the metrics use.
type memSnap struct {
	totalAlloc uint64
	numGC      uint32
	pauseNs    uint64
}

func readMem() memSnap {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memSnap{totalAlloc: m.TotalAlloc, numGC: m.NumGC, pauseNs: m.PauseTotalNs}
}

// memDelta accumulates allocation and GC work over timed regions only.
type memDelta struct {
	allocBytes uint64
	gcCycles   uint64
	pauseNs    uint64
}

func (d *memDelta) add(before, after memSnap) {
	d.allocBytes += after.totalAlloc - before.totalAlloc
	d.gcCycles += uint64(after.numGC - before.numGC)
	d.pauseNs += after.pauseNs - before.pauseNs
}

// maxRSSMB reads the process's peak resident set (VmHWM) in MiB.
func maxRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// eps is the float64 unit roundoff.
const eps = 0x1p-52

// errDecades expresses a worst relative error as decades above float64
// roundoff: log10(err/ε), floored at 0. It is positive and lower is
// better, so a regression bound can be a share of it.
func errDecades(worst float64) float64 {
	if worst <= eps {
		return 0
	}
	return math.Log10(worst / eps)
}
