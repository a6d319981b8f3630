// Command hyperbal-bench is hyperbal's benchmark: four fixed-sequence
// workloads driven through the library's public APIs, with every output
// checked against a reference. Run it from the repository root:
//
//	bash benchmark/run.sh --workload fig7-repart --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. --trace 0 reports the end-to-end
// metrics; --trace 1 runs the same inputs untraced, traced and untraced
// again, and reports the per-layer metrics plus the tracing overhead. A wrong output
// exits with status 1, naming the workload, op index and seed. See
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// workload is one fixed op sequence. rate is how many timed ops one second
// of --seconds buys on the reference host (2 vCPU Xeon), so a run does
// round(seconds*rate) ops and the op count, not a clock, ends the run.
// README.md gives why each workload is here. A workload with a note is
// left out of BENCHMARK.json, and the note, printed with its results, says
// why.
type workload struct {
	name string
	rate float64
	note string
	// prepare makes the inputs and reference outputs shared by every
	// pass; the returned function runs one pass over them.
	prepare func(seed int64, ops int, tr *tracer) (func(p *pass) error, error)
}

var workloads = []workload{
	{"fig7-repart", 30, "", prepareFig7},
	{"serve-cached", 330, "", prepareServeCached},
	{"serve-delta-warm", 40, "not gated in BENCHMARK.json: on the 2-vCPU reference host its op time " +
		"fell to 0.70x of its median for minutes at a time while the other workloads stayed above 0.9x, " +
		"so ten runs spread 0.26 (op_ms_p50) and 0.31 (op_ms_p90), past the largest allowed bound, 0.25",
		prepareServeDeltaWarm},
	{"spmd-repart", 20, "", prepareSPMD},
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hyperbal-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: "+workloadNames())
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&o.seconds, "seconds", 10, "nominal seconds of timed ops (sets the fixed op count)")
	fs.IntVar(&trace, "trace", 0, "1 = per-layer run: untraced, traced and untraced passes over the same inputs")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, ok := findWorkload(o.workload)
	if !ok || o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintf(stderr, "hyperbal-bench: want --workload one of %s, --seconds >= 1, --trace 0 or 1\n", workloadNames())
		return 2
	}
	res, err := runWorkload(w, o, stdout)
	if err != nil {
		fmt.Fprintf(stderr, "hyperbal-bench: %v\n", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "hyperbal-bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEndUnits are the untraced run's metrics and their units. ok_frac
// is 1 - fail_frac: the reported metrics must never be 0.
var endToEndUnits = map[string]string{
	"setup_s":         "s",
	"op_ms_p50":       "ms",
	"op_ms_p90":       "ms",
	"cpu_ms_per_op":   "ms",
	"normalized_cost": "volume",
	"max_rss_mb":      "MB",
	"ok_frac":         "ratio",
}

// minOps is the fewest ops a pass runs, so that p90 has minBeyond samples
// above it even with a few failures.
const minOps = 10*minBeyond + 10

// opCount is the fixed number of timed ops for a run of seconds.
func opCount(w workload, seconds int) int {
	return max(int(math.Round(float64(seconds)*w.rate)), minOps)
}

func runWorkload(w workload, o options, stdout io.Writer) (*result, error) {
	fp := hostFingerprint(o)
	fpLine, _ := json.Marshal(fp)
	fmt.Fprintf(stdout, "fingerprint %s\n", fpLine)
	if w.note != "" {
		fmt.Fprintf(stdout, "note %s: %s\n", w.name, w.note)
	}

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	// A traced run makes three passes of a third of the ops each, which
	// keeps it about as long as an untraced one: untraced, traced, and
	// untraced again, so warm-up and drift do not all land on one side of
	// the tracing overhead.
	ops := opCount(w, o.seconds)
	if o.trace {
		ops = max(ops/3, minOps)
	}
	passFn, err := w.prepare(o.seed, ops, tr)
	if err != nil {
		return nil, fmt.Errorf("%s set-up (seed %d): %w", w.name, o.seed, err)
	}
	res := &result{Correct: true}
	runPass := func(kind string, tr *tracer) (*pass, summary, error) {
		p := newPass(w.name, o.seed, tr)
		if err := passFn(p); err != nil {
			var oe *outputError
			if errors.As(err, &oe) {
				return nil, summary{}, err
			}
			return nil, summary{}, fmt.Errorf("%s %s pass (seed %d): %w", w.name, kind, o.seed, err)
		}
		s, err := summarize(p.samples)
		if err != nil {
			return nil, summary{}, fmt.Errorf("%s %s pass (seed %d): %w", w.name, kind, o.seed, err)
		}
		fmt.Fprintf(stdout, "%s %s pass: ops attempted %d, succeeded %d, failed %d\n",
			w.name, kind, s.attempted, s.attempted-s.failed, s.failed)
		res.Attempted += s.attempted
		res.Failed += s.failed
		return p, s, nil
	}

	untraced, us, err := runPass("untraced", nil)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		res.Metrics = map[string]metric{}
		for name, v := range map[string]float64{
			"setup_s":         untraced.setupSeconds(),
			"op_ms_p50":       us.p50,
			"op_ms_p90":       us.p90,
			"cpu_ms_per_op":   us.cpuPerOp,
			"normalized_cost": us.cost,
			"max_rss_mb":      maxRSSMB(),
			"ok_frac":         1 - failFrac(us.attempted, us.failed),
		} {
			res.Metrics[name] = metric{v, endToEndUnits[name]}
		}
		fmt.Fprintf(stdout, "fail_frac %v ratio\n", failFrac(us.attempted, us.failed))
		printMetrics(stdout, res.Metrics)
		return res, nil
	}

	traced, ts, err := runPass("traced", tr)
	if err != nil {
		return nil, err
	}
	_, again, err := runPass("untraced", nil)
	if err != nil {
		return nil, err
	}
	var offPath []string
	var absent map[string]string
	res.Metrics, offPath, absent = layerReport(traced, untraced, ts.p50, (us.p50+again.p50)/2)
	printMetrics(stdout, res.Metrics)
	fmt.Fprintf(stdout, "not on this workload's path (reported as 0): %s\n", strings.Join(offPath, " "))
	for _, name := range sortedKeys(absent) {
		fmt.Fprintf(stdout, "absent %s (reported as 0): %s\n", name, absent[name])
	}
	path := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := tr.writeChrome(path, fp); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}
	fmt.Fprintf(stdout, "trace %s\n", path)
	return res, nil
}

func printMetrics(w io.Writer, m map[string]metric) {
	for _, k := range sortedKeys(m) {
		fmt.Fprintf(w, "%s %v %s\n", k, m[k].Value, m[k].Unit)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, ", ")
}
