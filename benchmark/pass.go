package main

import (
	"fmt"
	"sort"
	"time"
)

// pass is one run of a workload's fixed op sequence. An untraced pass
// (tr == nil) gives the end-to-end metrics; a traced pass also records
// spans and per-layer values.
type pass struct {
	workload string
	seed     int64
	tr       *tracer

	samples    []sample
	firstOp    time.Time
	rt0        runtimeStats // at the first op
	rtEnd      runtimeStats // after the last op
	allocBytes float64      // heap bytes allocated inside the timed ops

	layer  map[string][]float64 // per-op values of per-layer metrics
	absent map[string]string    // per-layer metric -> why it is not reported
}

func newPass(workload string, seed int64, tr *tracer) *pass {
	return &pass{workload: workload, seed: seed, tr: tr,
		layer: map[string][]float64{}, absent: map[string]string{}}
}

// outputError is a wrong output: the run exits nonzero and prints it.
type outputError struct {
	workload string
	op       int
	seed     int64
	msg      string
}

func (e *outputError) Error() string {
	return fmt.Sprintf("wrong output: workload %s, op %d, seed %d: %s", e.workload, e.op, e.seed, e.msg)
}

// wrong reports a wrong output of op i.
func (p *pass) wrong(i int, format string, args ...any) error {
	return &outputError{workload: p.workload, op: i, seed: p.seed, msg: fmt.Sprintf(format, args...)}
}

// op times fn as op number len(p.samples). fn returns the normalized cost
// of the op's result; an error from fn is a failed op (errored or refused),
// counted in fail_frac. op reports whether fn succeeded.
func (p *pass) op(fn func() (float64, error)) bool {
	p.tr.setOp(len(p.samples))
	rt0 := readRuntime()
	if p.firstOp.IsZero() {
		p.firstOp = time.Now()
		p.rt0 = rt0
	}
	c0 := cpuTime()
	start := time.Now()
	cost, err := fn()
	wall := time.Since(start)
	cpu := cpuTime() - c0
	rt1 := readRuntime()
	p.rtEnd = rt1
	p.allocBytes += rt1.allocBytes - rt0.allocBytes
	p.samples = append(p.samples, sample{wall: wall, cpu: cpu, cost: cost, failed: err != nil})
	return err == nil
}

// next is the index the next op will get.
func (p *pass) next() int { return len(p.samples) }

// record adds one op's value of a per-layer metric.
func (p *pass) record(name string, v float64) {
	if p.tr == nil {
		return
	}
	p.layer[name] = append(p.layer[name], v)
}

// recordMS records a duration in milliseconds.
func (p *pass) recordMS(name string, d time.Duration) { p.record(name, ms(d)) }

// markAbsent withdraws per-layer metrics from this pass's report.
func (p *pass) markAbsent(reason string, names ...string) {
	for _, n := range names {
		if _, ok := p.absent[n]; !ok {
			p.absent[n] = reason
		}
	}
}

// setupSeconds is the time from process start to the pass's first op.
func (p *pass) setupSeconds() float64 { return p.firstOp.Sub(processStart).Seconds() }

// aggregation of per-op values into a per-layer metric.
type aggregation int

const (
	aggMedian aggregation = iota // typical op, for times
	aggMean                      // per-op average, for counts and fractions
)

type metricDef struct {
	name, unit, better string
	agg                aggregation
}

// layerMetrics lists the traced run's per-layer metrics, in report order.
// A metric the workload has no call for is reported as 0 and listed as not
// on the workload's path; see README.md for which workload feeds which.
var layerMetrics = []metricDef{
	{"hgp.partition_ms", "ms", "lower", aggMedian},
	{"hgp.partition_ms_p1", "ms", "lower", aggMedian},
	{"hgp.speedup_p2", "x", "higher", aggMedian},
	{"hgp.allocs_per_call", "count", "lower", aggMean},
	{"hgp.levels_per_call", "count", "lower", aggMean},
	{"hgp.fm_moves_per_call", "count", "lower", aggMean},
	{"hgp.kway_moves_per_call", "count", "lower", aggMean},
	{"core.build_ms", "ms", "lower", aggMedian},
	{"core.decode_ms", "ms", "lower", aggMedian},
	{"core.warm_ms", "ms", "lower", aggMedian},
	{"partition.cut_ms", "ms", "lower", aggMedian},
	{"hypergraph.encode_ms", "ms", "lower", aggMedian},
	{"hypergraph.decode_ms", "ms", "lower", aggMedian},
	{"hypergraph.fingerprint_ms", "ms", "lower", aggMedian},
	{"hypergraph.delta_compute_ms", "ms", "lower", aggMedian},
	{"hypergraph.delta_apply_ms", "ms", "lower", aggMedian},
	{"hypergraph.dirty_ms", "ms", "lower", aggMedian},
	{"server.handler_ms", "ms", "lower", aggMedian},
	{"server.residual_ms", "ms", "lower", aggMedian},
	{"server.cache_hit_frac", "ratio", "higher", aggMean},
	{"wire.request_bytes_per_op", "bytes", "lower", aggMean},
	{"wire.response_bytes_per_op", "bytes", "lower", aggMean},
	{"hyperbal.transport_ms", "ms", "lower", aggMedian},
	{"phg.world_ms", "ms", "lower", aggMedian},
	{"mpi.messages_per_op", "count", "lower", aggMean},
	{"mpi.bytes_per_op", "bytes", "lower", aggMean},
	{"mpi.collectives_per_op", "count", "lower", aggMean},
	{"mpi.max_stall_ms", "ms", "lower", aggMedian},
	{"mpi.blocked_sends_per_op", "count", "lower", aggMean},
	{"mpi.empty_world_ms", "ms", "lower", aggMedian},
	{"runtime.alloc_mb_per_op", "MB", "lower", aggMean},
	{"runtime.gc_cpu_frac", "ratio", "lower", aggMean},
	{"trace.op_ms_p50", "ms", "lower", aggMedian},
	{"trace.overhead_ms", "ms", "lower", aggMedian},
	{"trace.absent", "count", "lower", aggMean},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// layerReport turns the traced pass, the first untraced pass and the
// untraced op p50 into every per-layer metric. It also returns the metrics that
// are not on this workload's path and those the workload should have but
// could not measure, each with the reason.
func layerReport(traced, untraced *pass, tracedP50, untracedP50 float64) (map[string]metric, []string, map[string]string) {
	// The runtime counters come from the untraced pass, so span
	// bookkeeping does not inflate them.
	traced.record("runtime.alloc_mb_per_op", untraced.allocBytes/float64(len(untraced.samples))/(1<<20))
	if used := untraced.rtEnd.usedCPU - untraced.rt0.usedCPU; used > 0 {
		traced.record("runtime.gc_cpu_frac", (untraced.rtEnd.gcCPU-untraced.rt0.gcCPU)/used)
	}
	traced.record("trace.op_ms_p50", tracedP50)
	traced.record("trace.overhead_ms", tracedP50-untracedP50)

	out := map[string]metric{}
	var offPath []string
	for _, d := range layerMetrics {
		if d.name == "trace.absent" {
			continue
		}
		vals, ok := traced.layer[d.name]
		_, gone := traced.absent[d.name]
		switch {
		case gone:
			out[d.name] = metric{0, d.unit}
		case !ok || len(vals) == 0:
			offPath = append(offPath, d.name)
			out[d.name] = metric{0, d.unit}
		default:
			v := median(vals)
			if d.agg == aggMean {
				v = mean(vals)
			}
			out[d.name] = metric{v, d.unit}
		}
	}
	out["trace.absent"] = metric{float64(len(traced.absent)), "count"}
	sort.Strings(offPath)
	return out, offPath, traced.absent
}
