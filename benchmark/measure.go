package main

import (
	"fmt"
	"math"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// processStart approximates the process start: package variables are
// initialised before main runs, so set-up time is measured from here.
var processStart = time.Now()

// sample is one timed op.
type sample struct {
	wall   time.Duration
	cpu    time.Duration
	cost   float64 // comm + mig/α of the op's result
	failed bool
}

// summary is the end-to-end view of one pass's samples.
type summary struct {
	attempted, failed int
	p50, p90          float64 // ms, over the ops that succeeded
	cpuPerOp          float64 // ms, over every attempted op
	cost              float64 // mean over the ops that succeeded
}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs (sorted in place)
// and how many samples lie above it.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i], len(xs) - 1 - i
}

// median is the nearest-rank median of xs (sorted in place).
func median(xs []float64) float64 {
	v, _ := percentile(xs, 0.5)
	return v
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// failFrac is the share of attempted ops that errored or were refused.
func failFrac(attempted, failed int) float64 {
	if attempted == 0 {
		return 1
	}
	return float64(failed) / float64(attempted)
}

// summarize reduces a pass's samples. It refuses a pass that has too few
// successful ops for its p90 to have minBeyond samples above it.
func summarize(samples []sample) (summary, error) {
	var s summary
	var walls []float64
	var cpu time.Duration
	for _, x := range samples {
		s.attempted++
		cpu += x.cpu
		if x.failed {
			s.failed++
			continue
		}
		walls = append(walls, ms(x.wall))
		s.cost += x.cost
	}
	if s.attempted > 0 {
		s.cpuPerOp = ms(cpu) / float64(s.attempted)
	}
	if len(walls) > 0 {
		s.cost /= float64(len(walls))
	}
	var beyond int
	s.p90, beyond = percentile(walls, 0.9)
	if beyond < minBeyond {
		return s, fmt.Errorf("only %d of %d ops succeeded, leaving %d samples above p90 (want at least %d)",
			len(walls), s.attempted, beyond, minBeyond)
	}
	s.p50 = median(walls)
	return s, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set in MB (ru_maxrss is in KB
// on Linux).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeStats reads the Go runtime counters the per-layer run reports.
type runtimeStats struct {
	allocBytes, allocObjects float64
	gcCPU, usedCPU           float64 // seconds
}

var runtimeSampleNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntime() runtimeStats {
	s := make([]metrics.Sample, len(runtimeSampleNames))
	for i, n := range runtimeSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeStats{
		allocBytes:   v(0),
		allocObjects: v(1),
		gcCPU:        v(2),
		usedCPU:      v(3) - v(4),
	}
}
