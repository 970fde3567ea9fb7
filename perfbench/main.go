// Command perfbench is the repository benchmark: it runs one named workload
// against the compiler and serving stack, checks every output, and prints
// each metric with its unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"<name>": {"value": v, "unit": "u"}}}
//
// With -trace 0 the metrics are the end-to-end figures, measured with
// tracing off; with -trace 1 they are the per-layer figures, derived from
// spans the benchmark records around its calls into each module, which are
// also written to <build>/traces/<workload>-seed<seed>.json.
//
// Usage (from the repository root, through the wrapper that builds it):
//
//	python3 perfbench/run.py --workload resnet18-b1 --seed 1 --seconds 25 --trace 0
//
// See README.md next to this file for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// processStart approximates the process start for the first set-up: it is
// taken as early as package initialization allows.
var processStart = time.Now()

// setupReps is how many times each run sets its workload up from nothing;
// setup_s is the median.
const setupReps = 3

// runConfig is one invocation's settings.
type runConfig struct {
	seed    uint64
	seconds time.Duration
	threads int     // nproc: the engine width and the load generator's concurrency bound
	tmp     string  // empty per-run temp directory, removed at exit
	tr      *tracer // nil unless this is the traced run
}

// workload is one named benchmark scenario.
type workload struct {
	name string
	why  string
	run  func(ctx context.Context, c *runConfig) (*report, error)
}

var workloads = []workload{
	{"resnet18-b1", "dense-conv bound batch-1 inference: Winograd 3x3, 7x7 stem and the intra-op pool",
		func(ctx context.Context, c *runConfig) (*report, error) { return runModel(ctx, c, "resnet-18") }},
	{"mobilenet-b1", "memory-bound batch-1 inference: 1x1 pointwise and depthwise convs, no Winograd",
		func(ctx context.Context, c *runConfig) (*report, error) { return runModel(ctx, c, "mobilenet-v1") }},
	{"serve-tiny-resnet", "open-loop kserve-v2 serving of a bundled model: HTTP, JSON, batcher and serial sessions",
		runServe},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", 1, "seed for inputs and arrival schedules")
	seconds := fs.Float64("seconds", 10, "measured seconds per run")
	trace := fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload (one of %v), -seconds > 0 and -trace 0|1\n", workloadNames())
		return 2
	}

	build := os.Getenv("CARGO_TARGET_DIR")
	if build == "" {
		build = ".bench_build"
	}
	tmp := filepath.Join(build, "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.RemoveAll(tmp); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	c := &runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		threads: runtime.NumCPU(),
		tmp:     tmp,
	}
	if *trace == 1 {
		c.tr = newTracer()
	}
	fmt.Fprintf(stdout, "workload %s (%s): seed %d, %v measured, %d threads, trace %d\n",
		w.name, w.why, c.seed, c.seconds, c.threads, *trace)
	rep, err := w.run(context.Background(), c)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	if c.tr != nil {
		path := filepath.Join(build, "traces", fmt.Sprintf("%s-seed%d.json", w.name, c.seed))
		if err := c.tr.write(path, w.name, c.seed, rep.layers); err != nil {
			fmt.Fprintln(stderr, "perfbench: trace:", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace written to %s (%d spans)\n", path, c.tr.len())
	}
	rep.print(stdout)
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// tally counts attempted operations (inferences or requests) and how they
// failed. fail_ratio is failed()/attempted.
type tally struct {
	attempted int
	errors    int // the call returned an error
	wrong     int // the output differed from the check
	non200    int // the server answered with another status
}

func (t *tally) failed() int { return t.errors + t.wrong + t.non200 }

func (t *tally) ok() int { return t.attempted - t.failed() }

// count adds one operation with its outcome.
func (t *tally) count(o outcome) {
	t.attempted++
	switch o {
	case outcomeError:
		t.errors++
	case outcomeNon200:
		t.non200++
	case outcomeWrong:
		t.wrong++
	}
}

// merge adds another tally's counts.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.errors += o.errors
	t.wrong += o.wrong
	t.non200 += o.non200
}

// metric is one reported figure with the number of samples behind it.
type metric struct {
	name    string
	unit    string
	value   float64
	samples int
}

// report is a finished run: its tally, the metrics to print, notes for the
// human-readable log, and (traced runs) a per-node layer table.
type report struct {
	tally
	metrics []metric
	notes   []string
	layers  []layerRow
}

func (r *report) add(name, unit string, value float64, samples int) {
	r.metrics = append(r.metrics, metric{name, unit, value, samples})
}

func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// print writes the human-readable lines and then the result object as the
// last line.
func (r *report) print(w io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(w, "note:", n)
	}
	ratio := 0.0
	if r.attempted > 0 {
		ratio = float64(r.failed()) / float64(r.attempted)
	}
	fmt.Fprintf(w, "fail_ratio = %g (%d failed of %d attempted: %d errors, %d wrong outputs, %d non-200)\n",
		ratio, r.failed(), r.attempted, r.errors, r.wrong, r.non200)
	type jsonMetric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool                  `json:"correct"`
		Attempted int                   `json:"attempted"`
		Failed    int                   `json:"failed"`
		Metrics   map[string]jsonMetric `json:"metrics"`
	}{r.failed() == 0 && r.attempted > 0, r.attempted, r.failed(), map[string]jsonMetric{}}
	ms := append([]metric(nil), r.metrics...)
	sort.SliceStable(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	for _, m := range ms {
		v := m.value
		if math.IsNaN(v) || math.IsInf(v, 0) {
			// JSON has no NaN; an undefined figure (e.g. a rank
			// correlation over fewer than two layers) reads as 0.
			v = 0
		}
		fmt.Fprintf(w, "metric %-28s %14.6g %-6s (n=%d)\n", m.name, v, m.unit, m.samples)
		out.Metrics[m.name] = jsonMetric{v, m.unit}
	}
	// Marshal cannot fail: plain numbers (NaN and Inf replaced), strings
	// and a map with string keys.
	b, _ := json.Marshal(out)
	fmt.Fprintln(w, string(b))
}
