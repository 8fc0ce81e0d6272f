package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
)

// median returns the median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns p99 or, with fewer than 1000 samples, p90 (nearest rank),
// whichever leaves at least ten samples beyond it, with its level; with fewer
// than 100 samples no level qualifies and the maximum (level 100) is
// returned. Higher levels are not used: among the served workload's
// 18000-21000 jobs p99.9 rests on the slowest 18-21, and it spread 0.32 over
// five runs of the same code.
func tail(xs []float64) (value, level float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	for _, p := range []float64{99, 90} {
		rank := int(math.Ceil(p / 100 * float64(n)))
		if n-rank >= 10 {
			return s[rank-1], p
		}
	}
	return s[n-1], 100
}

// cpuSeconds is the process's user plus system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err)) // cannot fail for RUSAGE_SELF
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// goCounters reads the runtime's cumulative heap-allocated bytes and
// completed GC cycles.
func goCounters() (allocBytes, gcCycles uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}

// splitmix64 mixes x into a well-distributed 64-bit value; the benchmark
// derives every input of a run from --seed through it.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// mix derives a value from the seed and coordinates.
func mix(seed int64, coords ...int64) uint64 {
	h := splitmix64(uint64(seed))
	for _, c := range coords {
		h = splitmix64(h ^ uint64(c))
	}
	return h
}
