// Command kindle-bench regenerates the tables and figures of the Kindle
// paper's evaluation.
//
// Usage:
//
//	kindle-bench [-scale 1.0] [-parallel N] [-experiment all|tableI|tableII|fig4a|fig4b|tableIII|tableIV|fig5|intervals|image-sizes|hscc|crash-sweep|traffic|extensions] [-check]
//
// -scale shrinks footprints, trace lengths and intervals proportionally
// (0.0625 runs the whole suite in about a minute; 1.0 is paper scale).
// -parallel bounds the worker pool independent simulation runs fan out
// over (default: one worker per CPU). Each run owns its machine — clock,
// stats, RNG — so parallel execution produces byte-identical output.
// Every persistence-grid cell and every shard segment boots its machine
// cold. Neither simulates anything before its boot prefix, and on a 2-vCPU
// Xeon VM resuming a snapshot of that prefix was no faster than booting it
// (grid cell 0.72–0.84 ms resumed, 0.57–0.96 ms cold; shard segment
// 479–566 µs resumed, 414–471 µs cold). Snapshots serve `kindle
// -snapshot-in` and the crash sweep, which skip simulated work. -check
// validates the published shapes after running.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"kindle/internal/bench"
	"kindle/internal/obs/monitor"
)

// writeFileSafe writes data through a buffered writer, propagating flush
// and close errors (a full disk must not yield a silently truncated CSV)
// and removing the partial file when the write fails.
func writeFileSafe(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	_, werr := w.Write(data)
	if werr == nil {
		werr = w.Flush()
	}
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		os.Remove(path)
		return werr
	}
	return nil
}

func main() {
	scale := flag.Float64("scale", 1.0, "experiment scale (1.0 = paper parameters)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0), "worker pool size for independent simulation runs (1 = sequential)")
	experiment := flag.String("experiment", "all", "which experiment to run")
	check := flag.Bool("check", false, "verify the published shapes")
	csvPath := flag.String("csv", "", "also write all data points as CSV (with -experiment all)")
	monitorAddr := flag.String("monitor", "", "serve live telemetry on this HTTP address (e.g. :8090): /metrics, /progress, /debug/pprof/")
	liveProgress := flag.Bool("progress", true, "render a live progress/ETA line on stderr")
	flag.Parse()

	tracker := bench.NewTracker()
	opt := bench.Options{Scale: *scale, Parallel: *parallel, Progress: tracker}
	progress := func(s string) {
		if stderrIsTTY() {
			fmt.Fprint(os.Stderr, "\r\x1b[K")
		}
		fmt.Fprintln(os.Stderr, "[kindle-bench] "+s)
	}

	if *monitorAddr != "" {
		mon, err := monitor.Listen(*monitorAddr, monitor.Options{
			Progress: func() any { return tracker.Snapshot() },
			Gauges:   tracker.Gauges,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "kindle-bench:", err)
			os.Exit(1)
		}
		defer mon.Close()
		fmt.Fprintf(os.Stderr, "monitor: listening on http://%s\n", mon.Addr())
	}
	if *liveProgress {
		stop := startProgressLine(tracker)
		defer stop()
	}

	run := func(e bench.Experiment, err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, "kindle-bench:", err)
			os.Exit(1)
		}
		fmt.Println(e.Render())
		if *check {
			if err := e.CheckShape(); err != nil {
				fmt.Fprintln(os.Stderr, "kindle-bench: shape check failed:", err)
				os.Exit(1)
			}
			fmt.Println("shape check: ok")
		}
	}

	switch *experiment {
	case "all":
		res, err := bench.RunAll(opt, progress)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kindle-bench:", err)
			os.Exit(1)
		}
		fmt.Print(res.Render())
		if *csvPath != "" {
			if err := writeFileSafe(*csvPath, []byte(res.RenderCSV())); err != nil {
				fmt.Fprintln(os.Stderr, "kindle-bench:", err)
				os.Exit(1)
			}
			fmt.Fprintln(os.Stderr, "[kindle-bench] CSV written to "+*csvPath)
		}
		if *check {
			if err := res.CheckShapes(); err != nil {
				fmt.Fprintln(os.Stderr, "kindle-bench:", err)
				os.Exit(1)
			}
			fmt.Println("shape checks: all ok")
		}
	case "tableI":
		run(bench.TableI(), nil)
	case "tableII":
		r, err := bench.TableII(opt)
		run(r, err)
	case "fig4a":
		r, err := bench.Fig4a(opt)
		run(r, err)
	case "fig4b":
		r, err := bench.Fig4b(opt)
		run(r, err)
	case "tableIII":
		r, err := bench.TableIII(opt)
		run(r, err)
	case "tableIV":
		r, err := bench.TableIV(opt)
		run(r, err)
	case "fig5":
		r, err := bench.Fig5(opt)
		run(r, err)
	case "intervals":
		r, err := bench.Intervals(opt)
		run(r, err)
	case "image-sizes", "imagesizes":
		r, err := bench.ImageSizes(opt)
		run(r, err)
	case "hscc":
		tv, f6, t6, err := bench.HSCCAll(opt)
		if err != nil {
			fmt.Fprintln(os.Stderr, "kindle-bench:", err)
			os.Exit(1)
		}
		for _, e := range []bench.Experiment{tv, f6, t6} {
			run(e, nil)
		}
	case "crash-sweep", "crashsweep":
		r, err := bench.CrashSweep(opt)
		run(r, err)
	case "traffic":
		r, err := bench.Traffic(opt)
		run(r, err)
	case "extensions":
		// Studies beyond the paper's evaluation that it points at:
		// consolidation frequency, NVM technologies, write-buffer depth,
		// context-switch interference.
		for _, ext := range []func(bench.Options) (bench.Experiment, error){
			study(bench.ExtConsolidation), study(bench.ExtNVMTech), study(bench.ExtWriteBuffer),
			study(bench.ExtContextSwitch), study(bench.ExtCheckCost), study(bench.ExtRecoveryTime),
		} {
			run(ext(opt))
		}
	default:
		fmt.Fprintf(os.Stderr, "kindle-bench: unknown experiment %q\n", *experiment)
		os.Exit(2)
	}
}

// study adapts an experiment constructor to return the Experiment
// interface, so constructors of different result types share one list.
func study[T bench.Experiment](f func(bench.Options) (T, error)) func(bench.Options) (bench.Experiment, error) {
	return func(opt bench.Options) (bench.Experiment, error) { return f(opt) }
}

// stderrIsTTY reports whether stderr is a character device (a terminal
// that supports in-place line rewriting).
func stderrIsTTY() bool {
	fi, err := os.Stderr.Stat()
	return err == nil && fi.Mode()&os.ModeCharDevice != 0
}

// startProgressLine renders the tracker's progress/ETA line on stderr —
// rewritten in place once a second on a terminal, appended every ten
// seconds otherwise (so CI logs stay readable). The returned stop function
// ends the feed and terminates an in-place line with a newline.
func startProgressLine(tr *bench.Tracker) (stop func()) {
	tty := stderrIsTTY()
	period := time.Second
	if !tty {
		period = 10 * time.Second
	}
	done := make(chan struct{})
	finished := make(chan struct{})
	go func() {
		defer close(finished)
		tick := time.NewTicker(period)
		defer tick.Stop()
		wrote := false
		for {
			select {
			case <-done:
				if tty && wrote {
					fmt.Fprintln(os.Stderr)
				}
				return
			case <-tick.C:
				line := "[kindle-bench] " + tr.Snapshot().Line()
				wrote = true
				if tty {
					fmt.Fprintf(os.Stderr, "\r\x1b[K%s", line)
				} else {
					fmt.Fprintln(os.Stderr, line)
				}
			}
		}
	}()
	return func() { close(done); <-finished }
}
