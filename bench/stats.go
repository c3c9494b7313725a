package main

import (
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"newgame/internal/units"
)

// percentile returns the p-th percentile (0..100) of xs, interpolated
// between order statistics, leaving xs as it was; an empty slice yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return units.Quantile(sorted(xs), p/100)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quartiles ports Python's statistics.quantiles(values, n=4) (the default
// "exclusive" method), because the acceptance rule is stated in its terms.
// It needs at least two values.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := sorted(values)
	const n = 4
	ld := len(data)
	m := ld + 1
	var out [3]float64
	for i := 1; i < n; i++ {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		out[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return out[0], out[1], out[2]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// peakRSSMB reads VmHWM, the process's resident high-water mark.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) > 0 {
				kb, _ := strconv.ParseFloat(f[0], 64)
				return kb / 1024
			}
		}
	}
	return 0
}

// timed runs fn repeatedly — at least minIters times and until budget is
// spent — and returns the median duration and the iteration count. Layer
// probes use it so that a slow layer costs a bounded share of the run.
func timed(minIters int, budget time.Duration, fn func()) (time.Duration, int) {
	var ds []float64
	start := time.Now()
	for len(ds) < minIters || time.Since(start) < budget {
		t := time.Now()
		fn()
		ds = append(ds, float64(time.Since(t)))
		if len(ds) >= 100000 {
			break
		}
	}
	return time.Duration(median(ds)), len(ds)
}

// allocsPer reports heap allocations per call of fn over n calls.
func allocsPer(n int, fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	for i := 0; i < n; i++ {
		fn()
	}
	runtime.ReadMemStats(&b)
	return float64(b.Mallocs-a.Mallocs) / float64(n)
}

// goStats is the Go runtime's share of a measured window.
type goStats struct {
	mallocs    uint64
	allocBytes uint64
	gcPauseNs  uint64
}

func readGoStats() goStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return goStats{m.Mallocs, m.TotalAlloc, m.PauseTotalNs}
}
