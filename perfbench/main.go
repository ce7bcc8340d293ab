// Command perfbench is Kindle's benchmark. It drives the simulator from
// outside, through the public APIs of core, trace, gemos, persist and sim,
// on four named workloads. An untraced run prints the end-to-end metrics; a
// traced run (-trace 1) prints per-layer metrics: CPU-profile attribution to
// the repo's packages, benchmark-owned spans around public calls, and
// simulated event counts. See README.md for the workloads and metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload ycsb-replay --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime/debug"
	"strings"
	"time"
)

type options struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	// scale shrinks every workload's inputs (1 = full size).
	scale float64
}

func main() {
	names := make([]string, len(benchWorkloads))
	for i, w := range benchWorkloads {
		names[i] = w.name
	}
	o := options{scale: 1}
	flag.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(names, ", "))
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the workload's input generator")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	traceMode := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	flag.Parse()
	if *traceMode != 0 && *traceMode != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		os.Exit(2)
	}
	o.traced = *traceMode == 1

	rep, err := run(o, os.Stderr)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := printReport(os.Stdout, rep, o.traced); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !rep.Correct {
		os.Exit(1)
	}
}

// run sets the workload up, measures it and computes its metrics. Progress
// and per-run failures go to log.
func run(o options, log io.Writer) (*report, error) {
	w, err := findWorkload(o.workload)
	if err != nil {
		return nil, err
	}
	j, setupTimes, err := setUp(w, o)
	if err != nil {
		return nil, fmt.Errorf("%s set-up: %w", w.name, err)
	}
	fmt.Fprintf(log, "%s: seed %d, set-up %d times (median %.3fs), seconds %.4g\n",
		w.name, o.seed, len(setupTimes), median(setupTimes), setupTimes)

	h := &harness{log: log}
	budget := time.Duration(o.seconds * float64(time.Second))
	if !o.traced {
		runs, err := h.measure(j, []*tracer{nil}, budget, minRuns)
		if err != nil {
			return nil, err
		}
		return h.result(endToEndMetrics(setupTimes, runs[0]), endToEnd)
	}
	// Untraced runs alternate with traced ones, the trace_overhead
	// baseline measured under the same host conditions.
	tr := newTracer()
	runs, err := h.measure(j, []*tracer{nil, tr}, budget, minTracedRuns)
	if err != nil {
		return nil, err
	}
	return h.result(perLayerMetrics(runs[0], runs[1], tr), perLayer)
}

const (
	// minSetups and minSetupTime bound how often the inputs are built: at
	// least minSetups times and until minSetupTime has been spent, so a
	// cheap set-up still yields a steady median.
	minSetups    = 3
	maxSetups    = 50
	minSetupTime = 500 * time.Millisecond

	// minRuns is the fewest measured runs an untraced invocation makes;
	// minTracedRuns the fewest traced (and untraced) runs of a traced one.
	minRuns       = 3
	minTracedRuns = 2
)

// setUp builds the workload's inputs several times and keeps the last job.
// Garbage from each build is collected before the next build and before
// the timed runs, so neither pays for another's collection.
func setUp(w workload, o options) (job, []float64, error) {
	var (
		j     job
		times []float64
		spent time.Duration
	)
	for len(times) < minSetups || (spent < minSetupTime && len(times) < maxSetups) {
		j = nil
		debug.FreeOSMemory()
		start := time.Now()
		var err error
		j, err = w.setup(o.seed, o.scale)
		d := time.Since(start)
		if err != nil {
			return nil, nil, err
		}
		spent += d
		times = append(times, d.Seconds())
	}
	debug.FreeOSMemory()
	return j, times, nil
}

// metricDef names a metric and its unit, in the order reports print them.
type metricDef struct{ name, unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the benchmark's result line.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// result assembles the report from computed values; every metric in defs
// must have one.
func (h *harness) result(values map[string]float64, defs []metricDef) (*report, error) {
	rep := &report{
		Correct:   h.failed == 0 && h.attempted > 0,
		Attempted: h.attempted,
		Failed:    h.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not computed", d.name)
		}
		rep.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return rep, nil
}

// printReport writes one line per metric, then the JSON result line.
func printReport(out io.Writer, rep *report, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	fmt.Fprintf(out, "runs attempted %d, failed %d\n", rep.Attempted, rep.Failed)
	for _, d := range defs {
		fmt.Fprintf(out, "%-26s %16.6g %s\n", d.name, rep.Metrics[d.name].Value, d.unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(out, "%s\n", line)
	return err
}
