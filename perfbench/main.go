// Command perfbench is FLBooster's end-to-end benchmark. It runs one named
// workload as a closed loop in a single process (one step at a time, each
// step starting when the previous one returned; no TCP), checks every step's
// result against a plaintext oracle, and prints every metric by name and
// unit. The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 5, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set (BENCHMARK.json
// "end_to_end"); with --trace 1 the same loop reads device counters on
// alternate steps and is followed by a layer replay with a span per layer
// call, and the metrics are the per-layer set ("per_layer"). Inputs are a pure function of --seed.
//
// Usage (from the repository root; run.sh builds and execs this binary):
//
//	bash perfbench/run.sh --workload silo-agg --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strconv"
	"strings"
)

func main() {
	// One thread: the workload and the reference that host times are
	// divided by (reference.go) then share one core, and the
	// benchmark's own threads do not contend for the machine's few cores.
	runtime.GOMAXPROCS(1)
	os.Exit(run(os.Args[1:], fullSize, os.Stdout, os.Stderr))
}

// run parses args, runs one workload at size sz and writes the report to
// stdout. It returns the process exit code: 0 only when every step matched
// its oracle.
func run(args []string, sz size, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measurement window in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (seconds %v, trace %d)\n", *seconds, *trace)
		return 2
	}
	build, ok := workloads[*name]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames(), ", "))
		return 2
	}
	env, err := readEnv()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "# env %s\n", mustJSON(env))

	res, err := measure(build, sz, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	printReport(stdout, *name, res)

	metrics := res.endToEnd
	if *trace == 1 {
		metrics = res.perLayer
	}
	out := result{
		Correct:   res.failed == 0 && res.layerErr == "",
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   metrics.jsonMap(),
	}
	fmt.Fprintln(stdout, mustJSON(out))
	if !out.Correct {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d steps failed their oracle check%s\n",
			*name, res.failed, res.attempted, layerNote(res.layerErr))
		return 1
	}
	return 0
}

func layerNote(msg string) string {
	if msg == "" {
		return ""
	}
	return "; " + msg
}

// result is the final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metric is one named, unit-carrying measurement, kept in emission order.
type metric struct {
	name  string
	unit  string
	value float64
}

type metricList []metric

func (l *metricList) add(name, unit string, v float64) {
	*l = append(*l, metric{name: name, unit: unit, value: v})
}

func (l metricList) jsonMap() map[string]metricValue {
	m := make(map[string]metricValue, len(l))
	for _, x := range l {
		m[x.name] = metricValue{Value: x.value, Unit: x.unit}
	}
	return m
}

// printReport writes the human-readable table: the end-to-end metrics, then
// the raw host times and the reference's own time, and agg_err_max or
// loss_bias and failed_frac, which BENCHMARK.json leaves out because they
// may read 0 or apply to some workloads only, then the per-layer rows of a
// traced run.
func printReport(w io.Writer, name string, res *runResult) {
	fmt.Fprintf(w, "# workload %s: %d steps attempted, %d failed\n", name, res.attempted, res.failed)
	samples := func(name string, v []float64) {
		fmt.Fprintf(w, "# %s samples:", name)
		for _, x := range v {
			fmt.Fprintf(w, " %.1f", x)
		}
		fmt.Fprintln(w)
	}
	samples("host_step_ms", res.hostMs)
	samples("host_step_refs", res.hostRefs)
	rows := func(l metricList) {
		for _, m := range l {
			fmt.Fprintf(w, "%-30s %22s %s\n", m.name, strconv.FormatFloat(m.value, 'g', 10, 64), m.unit)
		}
	}
	rows(res.endToEnd)
	rows(res.extra)
	if len(res.perLayer) > 0 {
		fmt.Fprintf(w, "# per-layer rows (traced run)\n")
		rows(res.perLayer)
	}
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs and maps of numbers are marshalled
	}
	return string(b)
}
