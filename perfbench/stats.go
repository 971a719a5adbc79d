package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// opSample is one timed operation of a run's plain (untraced) rounds.
type opSample struct {
	at    float64 // when it ended, seconds since the timed phase began
	kind  string  // "match", "feed", "open" or "close"
	ms    float64 // its latency
	bytes int     // input bytes it scanned
	group int     // which automaton it ran on (scan workloads)
}

// tailWindows is how many consecutive windows of a run a tail
// percentile is taken over.
const tailWindows = 10

// tail returns the median, over tailWindows consecutive windows of the
// samples, of each window's q-quantile. Samples must be in time order. A
// burst of contention from outside the process lifts the tail of the
// windows it falls in, not the reported figure. The end-to-end tail is
// p95: on the shared reference host p99 mostly measures preemption by
// other tenants, and its run-to-run spread reaches the widest bound the
// benchmark may set.
func tail(xs []float64, q float64) float64 {
	var qs []float64
	for i := 0; i < tailWindows; i++ {
		w := xs[i*len(xs)/tailWindows : (i+1)*len(xs)/tailWindows]
		if len(w) > 0 {
			qs = append(qs, quantile(w, q))
		}
	}
	return median(qs)
}

// latencies returns the latencies of the operations of one kind, in
// the order of ops.
func latencies(ops []opSample, kind string) []float64 {
	var out []float64
	for _, o := range ops {
		if o.kind == kind {
			out = append(out, o.ms)
		}
	}
	return out
}

func geomean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// settle runs two collections so a timed phase does not pay for garbage
// left by the one before it.
func settle() {
	runtime.GC()
	runtime.GC()
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MiB.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
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
	return math.NaN()
}
