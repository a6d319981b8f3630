package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"

	"hyperbal/internal/obs"
)

func samplesMS(n int) []sample {
	s := make([]sample, n)
	for i := range s {
		s[i] = sample{wall: time.Duration(i+1) * time.Millisecond, cpu: time.Millisecond, cost: 1}
	}
	return s
}

func TestPercentileLeavesTenSamplesBeyondP90(t *testing.T) {
	s, err := summarize(samplesMS(100))
	if err != nil {
		t.Fatal(err)
	}
	if s.p90 != 90 || s.p50 != 50 {
		t.Fatalf("p50, p90 = %v, %v; want 50, 90", s.p50, s.p90)
	}
	if _, beyond := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); beyond != 1 {
		t.Fatalf("beyond = %d; want 1", beyond)
	}
	if _, err := summarize(samplesMS(99)); err == nil {
		t.Fatal("99 samples leave 9 above p90; want an error")
	}
	// Failed ops are attempted but not timed, so they do not count
	// towards the samples above p90.
	s100 := samplesMS(100)
	s100[0].failed = true
	if _, err := summarize(s100); err == nil {
		t.Fatal("99 successful ops of 100; want an error")
	}
	if opCount(workload{rate: 1}, 1) < 10*minBeyond+10 {
		t.Fatal("opCount allows fewer ops than the percentile rule needs")
	}
}

func TestFailFrac(t *testing.T) {
	s := samplesMS(120)
	for i := 0; i < 6; i++ {
		s[i*20].failed = true
	}
	sum, err := summarize(s)
	if err != nil {
		t.Fatal(err)
	}
	if sum.attempted != 120 || sum.failed != 6 {
		t.Fatalf("attempted %d failed %d; want 120, 6", sum.attempted, sum.failed)
	}
	if got := failFrac(sum.attempted, sum.failed); got != 0.05 {
		t.Fatalf("fail_frac = %v; want 0.05", got)
	}
	if sum.cpuPerOp != 1 {
		t.Fatalf("cpu per op = %v; want 1 (failed ops count as attempted)", sum.cpuPerOp)
	}
	if got := failFrac(0, 0); got != 1 {
		t.Fatalf("fail_frac with nothing attempted = %v; want 1", got)
	}
}

func TestSelfTimeSubtractsNestedChildrenOnce(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Start: 20 * ms, End: 50 * ms},  // overlaps span 2
		{ID: 4, Parent: 2, Start: 12 * ms, End: 14 * ms},  // grandchild: already inside span 2
		{ID: 5, Parent: 1, Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 6, Parent: 1, Start: 60 * ms},                // still open
	}
	if got := selfTime(spans, 1); got != 50*ms {
		t.Fatalf("self time of the root = %v; want 50ms", got)
	}
	if got := selfTime(spans, 2); got != 18*ms {
		t.Fatalf("self time of span 2 = %v; want 18ms", got)
	}
}

func TestTracerNestsSpans(t *testing.T) {
	tr := newTracer()
	tr.setOp(7)
	root := tr.begin("hyperbal", "client")
	remote := tr.beginRemote("server", "handler")
	child := tr.begin("hypergraph", "decode")
	tr.end(child)
	tr.end(remote)
	tr.end(root)
	after := tr.begin("core", "next")
	tr.end(after)
	want := map[int]int{root: 0, remote: root, child: root, after: 0}
	for _, s := range tr.spans {
		if s.Parent != want[s.ID] || s.Op != 7 || s.End < s.Start {
			t.Errorf("span %d %s: parent %d op %d; want parent %d op 7", s.ID, s.Name, s.Parent, s.Op, want[s.ID])
		}
	}
	var nilTracer *tracer
	if id := nilTracer.begin("x", "y"); id != 0 || nilTracer.end(id) != 0 {
		t.Fatal("a nil tracer must record nothing")
	}
}

func TestCounterDeltaToleratesMissingFamilies(t *testing.T) {
	before := obs.Snapshot{Counters: map[string]int64{"a_total": 1, `b_total{op="x"}`: 2}}
	after := obs.Snapshot{Counters: map[string]int64{"a_total": 4, `b_total{op="x"}`: 5, `b_total{op="y"}`: 1}}
	if d, ok := counterDelta(before, after, "b_total"); !ok || d != 4 {
		t.Fatalf("b_total delta = %v, %v; want 4, true", d, ok)
	}
	if _, ok := counterDelta(before, after, "gone_total"); ok {
		t.Fatal("a missing family must report not found")
	}
}

// TestServedMismatchIsAWrongOutput corrupts one oracle partition and
// checks the serve pass stops with an output error naming that op. The
// pass is traced, so the handler probe runs on the server's goroutines.
func TestServedMismatchIsAWrongOutput(t *testing.T) {
	tr := newTracer()
	plan, err := oraclePlan("auto", 200, 3, 4, 3, true, tr)
	if err != nil {
		t.Fatal(err)
	}
	plan.want[2] = append([]int32(nil), plan.want[2]...)
	plan.want[2][0] = (plan.want[2][0] + 1) % 4
	p := newPass("serve-delta-warm", 3, tr)
	err = servePass(p, []*sessionPlan{plan}, true)
	var oe *outputError
	if !errors.As(err, &oe) || oe.op != 1 || oe.seed != 3 || oe.workload != "serve-delta-warm" {
		t.Fatalf("err = %v; want an output error at op 1, seed 3", err)
	}
	if len(p.samples) != 2 {
		t.Fatalf("%d ops ran; want 2 (stop at the mismatch)", len(p.samples))
	}
	if got := p.layer["server.handler_ms"]; len(got) != 1 || got[0] <= 0 {
		t.Fatalf("handler times %v; want one positive value, for op 0", got)
	}
}

func TestWrongOutputExitsNonzeroWithoutResult(t *testing.T) {
	saved := workloads
	defer func() { workloads = saved }()
	workloads = append(workloads, workload{name: "broken", rate: 1,
		prepare: func(seed int64, ops int, _ *tracer) (func(*pass) error, error) {
			return func(p *pass) error {
				for i := 0; i < ops; i++ {
					p.op(func() (float64, error) { return 1, nil })
				}
				return p.wrong(ops-1, "partition differs")
			}, nil
		}})
	var stdout, stderr bytes.Buffer
	code := run([]string{"--workload", "broken", "--seed", "42", "--seconds", "1"}, &stdout, &stderr)
	if code == 0 {
		t.Fatal("exit code 0 on a wrong output")
	}
	for _, want := range []string{"broken", "op 109", "seed 42"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stderr %q does not name %q", stderr.String(), want)
		}
	}
	if strings.Contains(stdout.String(), `"correct"`) {
		t.Fatalf("a result was printed: %s", stdout.String())
	}
}

// TestBenchmarkJSONMatchesReport keeps BENCHMARK.json and the metrics the
// benchmark prints in step.
func TestBenchmarkJSONMatchesReport(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string }         `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, w := range spec.Workloads {
		listed[w.Name] = true
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("unknown workload %q", w.Name)
		}
	}
	for _, w := range workloads {
		if listed[w.name] == (w.note != "") {
			t.Errorf("workload %s: listed in BENCHMARK.json %v, note %q; a workload is listed exactly when it has no note",
				w.name, listed[w.name], w.note)
		}
	}
	if len(spec.EndToEnd) != len(endToEndUnits) {
		t.Errorf("BENCHMARK.json lists %d end-to-end metrics; the benchmark reports %d", len(spec.EndToEnd), len(endToEndUnits))
	}
	for _, m := range spec.EndToEnd {
		if endToEndUnits[m.Name] != m.Unit {
			t.Errorf("end-to-end %s [%s]: the benchmark reports unit %q", m.Name, m.Unit, endToEndUnits[m.Name])
		}
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics; the benchmark reports %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		d := layerMetrics[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %v, the benchmark %v", i, m, d)
		}
	}
}
